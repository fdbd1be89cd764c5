"""The benchmark's tracer wraps library functions by name. Every name it
wraps must exist, be replaced by install() and be put back by restore(), so
that removing or renaming one fails here rather than in a traced run."""

import sys
from pathlib import Path

import barjanet
import barjanet.cli  # imports every module the tracer patches

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402


def hooked():
    """(namespace, attribute) of every object install() replaces."""
    names = [
        (getattr(barjanet, module), attr)
        for _, attr, modules in tracing.FUNCTIONS
        for module in modules
    ]
    names += [
        (getattr(getattr(barjanet, module), cls), attr)
        for _, (module, cls), attr in tracing.METHODS
    ]
    return names + [(barjanet.points, "eval_term")]


def unwrap(obj):
    return getattr(obj, "__func__", obj)


def test_install_replaces_and_restore_puts_back(tmp_path, capsys):
    names = hooked()
    assert len(names) > len(tracing.FUNCTIONS)
    originals = [target.__dict__[attr] for target, attr in names]
    tracer = tracing.install(barjanet)
    try:
        for (target, attr), original in zip(names, originals):
            wrapper = target.__dict__[attr]
            assert wrapper is not original, attr
            assert unwrap(wrapper).__wrapped__ is unwrap(original), attr
        path = tmp_path / "u.terms"
        path.write_text("vars: 3\nx2\nx1*x3\n", encoding="utf-8")
        assert barjanet.cli.main(["check-complete", str(path)]) == 3
        assert tracer.counts["janet.is_complete_calls"] == 1
        assert tracer.self_time["cli.self"] > 0
    finally:
        tracer.restore()
    capsys.readouterr()
    for (target, attr), original in zip(names, originals):
        assert target.__dict__[attr] is original, attr


def test_basis_escalier_is_traced(tmp_path, capsys):
    # basis reaches its escalier through points.groebner_escalier, so the
    # points.escalier span covers basis as well as escalier
    tracer = tracing.install(barjanet)
    try:
        path = tmp_path / "x.points"
        path.write_text("vars: 2\n0,0\n1,0\n0,1\n2,3\n", encoding="utf-8")
        assert barjanet.cli.main(["basis", str(path)]) == 0
        assert tracer.self_time["points.escalier"] > 0
        assert tracer.counts["janet.rounds"] >= 1
    finally:
        tracer.restore()
    capsys.readouterr()
