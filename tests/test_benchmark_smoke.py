"""One traced round of each benchmark workload passes its own checks.

A change that breaks a workload, or a name the benchmark's tracer wraps,
would otherwise show only as a failed or incorrect benchmark run.  The
benchmark's modules are read and executed here, so no bytecode is written
next to them, and every file the round writes goes to a temporary directory.
"""

import sys
import types
from pathlib import Path

import pytest

import gkernel
from gkernel import decomp

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 28801  # a seed on which every workload's checks pass
# decompositions per decompose operation: the known extreme, the worst case, the
# other extreme in the audit and the per-step residual; the extreme that the
# certified policy applies reads the worst case's figures
DECOMPOSE_WALKS = 4


def _load(name, monkeypatch):
    """``perfbench/<name>.py`` executed from its source, registered under its
    own name for the imports between the benchmark's modules."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _hooks(spans, tracer):
    """What every attribute the tracer may patch holds: each listed method in
    its class, and each listed function's name in every module it scans."""
    out = {}
    for mod, cls, meth, _ in spans.METHODS:
        owner = getattr(getattr(gkernel, mod), cls)
        out[f"{mod}.{cls}.{meth}"] = owner.__dict__[meth]
    for _, fname, _ in spans.FUNCTIONS:
        for module in tracer.modules:
            out[f"{module.__name__}.{fname}"] = getattr(module, fname, None)
    return out


@pytest.mark.parametrize("name", ["ergodic", "price", "decompose"])
def test_one_traced_round_passes_its_checks(name, monkeypatch, tmp_path):
    files = sorted(BENCH.rglob("*"))
    _load("checks", monkeypatch)
    spans, workloads = _load("spans", monkeypatch), _load("workloads", monkeypatch)
    tracer = spans.Tracer(gkernel)
    originals = _hooks(spans, tracer)
    workload = workloads.WORKLOADS[name](tmp_path)
    failures, summaries, walks = [], {}, []
    blocks = decomp._path_blocks
    monkeypatch.setattr(decomp, "_path_blocks",
                        lambda *a, **k: walks.append(1) or blocks(*a, **k))
    tracer.install()
    try:
        patched = _hooks(spans, tracer)
        assert all(patched[f"{mod}.{cls}.{meth}"] is not originals[f"{mod}.{cls}.{meth}"]
                   for mod, cls, meth, _ in spans.METHODS)
        with tracer.operation("setup", "setup"):
            workload.setup(gkernel, SEED)
        ops = workload.ops()
        for op in ops:
            walks.clear()
            with tracer.operation(op.name, "round", op.control_steps):
                result = op.run()
            if name == "decompose":
                assert len(walks) == DECOMPOSE_WALKS, op.name
            msgs, summaries[op.name] = op.check(result)
            failures += msgs
        failures += workload.check_round(summaries)
    finally:
        tracer.uninstall()
    assert failures == []
    restored = _hooks(spans, tracer)
    assert [key for key, fn in originals.items() if restored[key] is not fn] == []
    assert {f"op.{op.name}" for op in ops} <= set(tracer.names)
    assert spans.layer_metrics(tracer, 1, 1)
    assert sorted(BENCH.rglob("*")) == files
