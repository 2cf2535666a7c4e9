"""Self-tests of the benchmark harness: `python3 -m pytest perfbench`."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lossprobe.cli  # noqa: E402,F401  (loads every package module)
from compare import CSV_REL_TOL, VERIFY_REL_TOL, compare_outputs  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics, outermost, self_times  # noqa: E402
from worker import run_job  # noqa: E402


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0, True, None]


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        _span("root", "cli", 0.0, 10.0, -1),
        _span("a", "chernoff.qcb", 1.0, 4.0, 0),
        _span("a1", "chernoff.qs", 2.0, 3.0, 1),
        _span("b", "chernoff.qcb", 5.0, 9.0, 0),
        _span("b1", "chernoff.qcb", 6.0, 8.5, 3),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 2.5]
    assert outermost(spans) == [True, True, True, True, False]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 3.0
    assert m["chernoff.qcb.self_s"] == 6.0
    assert m["chernoff.qcb.calls"] == 2
    assert m["chernoff.qs.evals"] == 1
    assert sum(m[f"{layer}.self_s"] for layer in ("cli", *LAYERS)) == 10.0


CSV = "# lossprobe 0.1.0\n# command: figure 3 points=2\nN,Gamma,Q1,Q2\n0,0.1,1,1\n10,0.1,0.5,0.25\n"


def test_comparator_flags_value_just_beyond_tolerance():
    ref = {"figure3.csv": CSV}
    for factor, failed in ((0.5, 0), (2.0, 1)):
        perturbed = CSV.replace("0.25\n", f"{0.25 * (1 + factor * CSV_REL_TOL)!r}\n")
        out = compare_outputs({"figure3.csv": perturbed}, ref)
        assert (out.attempted, out.failed) == (2, failed)
        assert 0 < out.max_rel_err < 2.5 * CSV_REL_TOL


def test_comparator_flags_missing_and_extra_files():
    out = compare_outputs({}, {"figure3.csv": CSV})
    assert (out.attempted, out.failed, out.rows) == (2, 2, 0)
    out = compare_outputs({"figure3.csv": CSV, "extra.csv": CSV}, {"figure3.csv": CSV})
    assert (out.attempted, out.failed) == (4, 2)


def test_comparator_flags_header_change_and_verify_rows():
    out = compare_outputs({"f.csv": CSV.replace("Q2", "Q3")}, {"f.csv": CSV})
    assert out.failed == 2
    line = "{}  case: input moments  value {: .3e}  tol 1.0e-08\n"
    ref = {"stdout": line.format("PASS", 2e-15)}
    assert compare_outputs({"stdout": line.format("PASS", 3e-15)}, ref).failed == 0
    assert compare_outputs({"stdout": line.format("FAIL", 2e-15)}, ref).failed == 1
    shifted = 2e-15 + 2 * VERIFY_REL_TOL * 1e-8
    assert compare_outputs({"stdout": line.format("PASS", shifted)}, ref).failed == 1


def _bindings() -> dict:
    out = {}
    for name, module in sys.modules.items():
        if name == "lossprobe" or name.startswith("lossprobe."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for module, path, _ in (t for targets in LAYERS.values() for t in targets):
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(sys.modules[f"lossprobe.{module}"], cls_name)
            out[(cls_name, attr)] = cls.__dict__[attr]
    return out


def test_traced_run_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        for module in ("gaussian", "chernoff", "channel", "cli", "verification"):
            assert getattr(sys.modules[f"lossprobe.{module}"], "make_two_mode_st") is not before[
                ("lossprobe.gaussian", "make_two_mode_st")]
        for name in ("q1", "q2", "delta_q_gamma"):
            assert getattr(lossprobe.cli, name) is not before[("lossprobe.cli", name)]
    argv = ["qcb", "--modes", "2", "--n", "1", "--beta", "0.5", "--eta", "0.5"]
    tracer = Tracer()
    rc, _, outputs, _ = run_job(argv, False, str(tmp_path), tracer)
    assert rc == 0 and "q = " in outputs["stdout"]
    m = layer_metrics(tracer.spans)
    assert m["chernoff.qcb.calls"] == 1 and m["chernoff.qs.evals"] > 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
