"""Reference loop for the projected-gradient ascent of ``lhv``.

This is the serial ascent that ``lhv._maximize_on_simplex`` replaces: one
start at a time (the uniform point, then the Philox Dirichlet draws in
order), 300 steps of size 0.5/sqrt(k+1) along the normalised gradient, a
start stopping when its gradient norm drops below 1e-14, each iterate put
back on the simplex by the 1-D sort-and-threshold projection.  The batched
code advances every start at once and must agree with it: bit for bit on a
cross-polytope block, within 1e-12 relative on a vertex mixture.
"""

import math

import numpy as np


def project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def maximize_on_simplex(f_grad, dim: int, restarts: int, seed: int,
                        iters: int = 300) -> float:
    rng = np.random.Generator(np.random.Philox(key=seed))
    best = -math.inf
    starts = [np.full(dim, 1.0 / dim)]
    starts += [rng.dirichlet(np.ones(dim)) for _ in range(restarts)]
    for w in starts:
        w = np.asarray(w, dtype=float)
        for k in range(iters):
            val, grad = f_grad(w)
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            step = 0.5 / math.sqrt(k + 1.0)
            w = project_simplex(w + step * grad / gn)
        val, _ = f_grad(w)
        best = max(best, val)
    return best


def block_numeric_reference(scale: float, k: int, r: float, restarts: int,
                            seed: int) -> float:
    def f_grad(w):
        wc = np.maximum(w, 1e-15)
        vals = (scale * wc) ** r
        grad = r * scale * (scale * wc) ** (r - 1.0)
        return float(vals.sum()), grad

    return maximize_on_simplex(f_grad, 1 << k, restarts, seed)


def mixture_numeric_reference(expr, vertices, restarts: int, seed: int) -> float:
    v = np.array([[float(x) for x in vec] for vec in vertices.vectors])
    coeffs = np.array([t.coefficient for t in expr.terms], dtype=float)
    r = float(expr.exponent)
    absolute = expr.absolute

    def f_grad(p):
        w = p @ v
        aw = np.maximum(np.abs(w), 1e-12)
        if absolute:
            vals = coeffs * aw ** r
            dphi = coeffs * r * aw ** (r - 1.0) * np.sign(w)
        else:
            vals = coeffs * np.copysign(aw ** r, w)
            dphi = coeffs * r * aw ** (r - 1.0)
        return float(vals.sum()), v @ dphi

    return maximize_on_simplex(f_grad, len(vertices.vectors), restarts, seed)
