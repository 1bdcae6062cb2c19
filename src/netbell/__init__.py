"""Exact tooling for network Bell tests built from segmented Pauli operators."""

__version__ = "0.1.0"


def __getattr__(name):
    # each submodule loads on first use, so a command imports only what it runs
    if name in ("cli", "lhv", "network", "pauli", "quantum", "sampler",
                "scenario", "states"):
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
