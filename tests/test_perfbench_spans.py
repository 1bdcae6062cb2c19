"""The benchmark's spans must still find every function they wrap.

``perfbench/spans.py`` patches netbell functions by name and only notes a
name it cannot find, so a rename would silently zero that layer's metrics.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves_in_netbell():
    wrapped = [(mod, attr) for _, mod, attr in _spans().SPANNED]
    wrapped.append(("quantum", "CompiledExpression.value"))  # counted calls
    missing = []
    for mod, attr in wrapped:
        owner = importlib.import_module(f"netbell.{mod}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the spans look in the owner's own namespace, as they patch it
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{mod}.{attr}")
    assert not missing
