"""The benchmark tracer rebinds ``seqgames`` functions by name; every name
it lists must exist, or a traced run would fail only when it is started."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from seqgames import coinduction, graphs

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    for name, home, attr, scope, _ in targets:
        module = importlib.import_module(f"seqgames.{home}")
        assert callable(getattr(module, attr, None)), f"{name}: seqgames.{home}.{attr} is missing"
        for other in scope or ():
            importlib.import_module(f"seqgames.{other}")


def test_counter_hooks_read_the_arguments_they_name():
    # ``_count_cross_check`` reads a call's graph and depth as args[0] and
    # args[4], and ``_count_unfold`` as args[0] and args[1]; a reordered
    # signature would miscount without any error.
    cross_check = list(inspect.signature(coinduction._cross_check).parameters)
    assert (cross_check[0], cross_check[4]) == ("graph", "depth")
    for unfold in (graphs.unfold, graphs.unfold_param):
        assert list(inspect.signature(unfold).parameters)[:2] == ["graph", "depth"]
