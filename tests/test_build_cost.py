"""tools/build_cost.py measures the rewriter build in fresh processes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "build_cost.py"
spec = importlib.util.spec_from_file_location("build_cost", TOOL)
build_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(build_cost)


def test_one_tree_at_n5(capsys):
    assert build_cost.main([str(ROOT), "--n", "5", "--pairs", "1"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    n, tree, cpu_s, cpu, rss_mb, rss = line.split()
    assert (n, tree, cpu_s, rss_mb) == ("N=5", str(ROOT), "cpu_s", "peak_rss_mb")
    assert float(cpu) > 0 and float(rss) > 1


def test_two_trees_alternate(monkeypatch):
    calls = []
    monkeypatch.setattr(build_cost, "measure",
                        lambda tree, N: calls.append((tree.name, N)) or (0.0, 0.0))
    runs = build_cost.run([Path("a"), Path("b")], [5, 6], pairs=3)
    assert calls == [("a", 5), ("b", 5), ("b", 5), ("a", 5), ("a", 5), ("b", 5),
                     ("a", 6), ("b", 6), ("b", 6), ("a", 6), ("a", 6), ("b", 6)]
    assert {key: len(v) for key, v in runs.items()} == \
        {(0, 5): 3, (1, 5): 3, (0, 6): 3, (1, 6): 3}
