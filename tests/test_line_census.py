"""The line census's machinery on a tiny tree.

The census itself runs every product entry under a line tracer, which is
too slow for this suite; it is the CI step ``python tests/line_census.py``.
Held here: what counts as a line, what as an error line, and that one
more unreached line fails the file's entry and the ceiling.
"""

import runpy
import textwrap

from tests.line_census import LineTracer, census, verdict


def test_the_line_census_on_a_tiny_tree(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    module = src / "mod.py"

    def write(text):
        module.write_text(textwrap.dedent(text))

    def run():
        tracer = LineTracer(src)
        tracer.run(lambda: runpy.run_path(str(module))["reached"](1))
        files = census(src, tracer.reached(), tracer.entered())
        return files["mod.py"], {path: len(f["other"]) for path, f in files.items() if f["other"]}

    write('''
        """A docstring is no line."""

        def reached(x):
            """Nor is this one."""
            if x < 0:
                raise ValueError(x)
            return x

        def unreached():
            return 2
    ''')
    mod, counts = run()
    assert counts == {"mod.py": 1}
    assert [len(mod["error"]), mod["functions"]] == [1, ["unreached"]]
    allowed = {"mod.py": (1, "a tiny tree's")}
    assert verdict(counts, allowed, 1) == []

    write('''
        def reached(x):
            if x < 0:
                raise ValueError(x)
            return x

        def unreached():
            two = 2
            return two
    ''')
    _mod, counts = run()
    assert counts == {"mod.py": 2}
    over_entry, over_ceiling = verdict(counts, allowed, 1)
    assert over_entry.startswith("mod.py: 2 unreached lines, 1 allowed")
    assert "over UNREACHED_CEILING = 1" in over_ceiling
    assert verdict(counts, {**allowed, "gone.py": (1, "")}, 3)[1] == (
        "gone.py: no unreached line left; drop its entry"
    )
