"""Byte-identical reports under any discovery or worklist order.

The derivability lattice is a finite powerset join-semilattice and the
interprocedural propagation is a chaotic iteration over monotone
global facts (parameter fragments, return fragments, the field-based
heap), so the least fixpoint — and therefore every rendered report —
is independent of file discovery order and worklist seeding.  These
tests shuffle both knobs with hypothesis and require byte-for-byte
identical output, the repo's byte-identical-reports convention applied
to the analyzer itself.
"""

import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.ir.project import Project, discover_files
from repro.analysis.keyrecon import analyze

FIXTURE_SOURCES = {
    "alpha.py": (
        "def mint(process, bits):\n"
        "    key = generate_rsa_key(process, bits)\n"
        "    return key\n"
        "\n"
        "def serve(process, connections, bits):\n"
        "    for conn in connections:\n"
        "        mint(process, bits)\n"
    ),
    "beta.py": (
        "def load(process, path):\n"
        "    pem = bio_read_file(process, path)\n"
        "    return d2i_privatekey(process, pem)\n"
    ),
    "gamma.py": (
        "def precompute(key):\n"
        "    return MontgomeryContext(key.p)\n"
    ),
    "delta.py": (
        "def scavenge(frame):\n"
        "    return frame.read()\n"
    ),
}


def make_project(root):
    for name, source in FIXTURE_SOURCES.items():
        (root / name).write_text(source, encoding="utf-8")


def rendered(report):
    return (
        json.dumps(report.to_json_dict(), sort_keys=True)
        + report.render_text()
        + json.dumps(report.to_sarif(), sort_keys=True)
    )


class TestShuffles:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_file_and_worklist_order_do_not_matter(self, tmp_path, seed):
        root = tmp_path / f"proj{seed}"
        root.mkdir()
        make_project(root)
        baseline = rendered(analyze(paths=[root]))

        rng = random.Random(seed)
        pairs = discover_files([root])
        rng.shuffle(pairs)
        names = list(Project.load([root]).functions)
        rng.shuffle(names)
        shuffled = rendered(
            analyze(paths=[root], files=pairs, initial_order=names)
        )
        assert shuffled == baseline
        in_sorted_order = rendered(
            analyze(paths=[root], initial_order=sorted(names))
        )
        assert in_sorted_order == baseline

    def test_two_full_dogfood_runs_are_byte_identical(self):
        first = rendered(analyze())
        second = rendered(analyze())
        assert first == second

    def test_reversed_discovery_on_real_tree(self):
        from repro.analysis.keyrecon.engine import REPRO_ROOT

        pairs = list(reversed(discover_files([REPRO_ROOT])))
        assert rendered(analyze(files=pairs)) == rendered(analyze())

    def test_shared_project_build_matches_fresh_parse(self):
        from repro.analysis.keyrecon.engine import REPRO_ROOT

        project = Project.load([REPRO_ROOT])
        assert rendered(analyze(project=project)) == rendered(analyze())

    def test_default_sorted_and_shuffled_seeds_on_real_tree(self):
        from repro.analysis.keyrecon.engine import REPRO_ROOT

        project = Project.load([REPRO_ROOT])
        names = project.sorted_names()
        shuffled = list(names)
        random.Random(20071).shuffle(shuffled)
        default = rendered(analyze(project=project))
        assert rendered(analyze(project=project, initial_order=names)) == default
        assert rendered(analyze(project=project, initial_order=shuffled)) == default
