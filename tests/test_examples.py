"""The chaos recovery example: deterministic, and no row is lost."""

import importlib.util
import pathlib

DEMO = pathlib.Path(__file__).parents[1] / "examples" / "chaos_recovery_demo.py"


def _load_demo():
    spec = importlib.util.spec_from_file_location("chaos_recovery_demo", DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chaos_demo_is_byte_identical_and_loses_no_row(capsys):
    demo = _load_demo()
    demo.main()
    first = capsys.readouterr().out
    demo.main()
    assert capsys.readouterr().out == first
    assert first.count("no row lost") == 2
    assert "migration.aborted" in first and "faults: 1 injected" in first
    for drill in (demo.crash_drill, demo.stall_drill):
        cluster, rows = drill()
        assert rows > 0
        assert demo.row_count(cluster) == rows
