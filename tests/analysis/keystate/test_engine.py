"""Typestate engine semantics on small fixtures: definite vs possibly
findings, merge tokens at joins, flags-expression analysis, obligations
on exception edges, fields, COW views, and interprocedural witnesses."""

import json

import pytest

from repro.analysis.keystate import KeyStateConfig, analyze


def run(tmp_path, source, config=None):
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    return analyze(paths=[tmp_path], config=config)


def ids(report):
    return [f.baseline_id for f in report.findings]


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


class TestRsaLifecycle:
    def test_serve_before_align_is_definite_without_align(self, tmp_path):
        report = run(
            tmp_path,
            "def handshake(process, msg):\n"
            "    rsa = RsaStruct(process)\n"
            "    rsa_private_operation(rsa, msg)\n",
        )
        (finding,) = report.findings
        assert finding.baseline_id == (
            "serve-before-align:mod.handshake:new:RsaStruct:serve"
        )
        assert not finding.message.startswith("possibly")

    def test_partial_align_downgrades_to_possibly(self, tmp_path):
        report = run(
            tmp_path,
            "def maybe(process, fast, msg):\n"
            "    rsa = RsaStruct(process)\n"
            "    if fast:\n"
            "        rsa_memory_align(rsa)\n"
            "    rsa_private_operation(rsa, msg)\n",
        )
        (finding,) = by_rule(report, "serve-before-align")
        assert finding.message.startswith("possibly")

    def test_aligned_path_is_clean(self, tmp_path):
        report = run(
            tmp_path,
            "def good(process, msg):\n"
            "    rsa = RsaStruct(process)\n"
            "    rsa_memory_align(rsa)\n"
            "    rsa_private_operation(rsa, msg)\n"
            "    rsa.rsa_free()\n",
        )
        assert report.findings == []

    def test_merge_token_catches_double_free_across_branches(self, tmp_path):
        # the env disagrees at the join (two distinct creations), so the
        # engine must merge the tokens rather than drop the binding
        report = run(
            tmp_path,
            "def pick(process, flag):\n"
            "    if flag:\n"
            "        rsa = RsaStruct(process)\n"
            "    else:\n"
            "        rsa = RsaStruct(process)\n"
            "    rsa.rsa_free()\n"
            "    rsa.rsa_free()\n",
        )
        (finding,) = by_rule(report, "double-free")
        assert not finding.message.startswith("possibly")
        rendered = [step.render() for step in finding.witness]
        assert any("creates -> loaded" in step for step in rendered)
        assert any("free -> freed" in step for step in rendered)

    def test_cow_view_must_scrub_mont_before_free(self, tmp_path):
        report = run(
            tmp_path,
            "def cow_child(parent, child, msg):\n"
            "    view = parent.view_in(child)\n"
            "    rsa_private_operation(view, msg)\n"
            "    view.drop_mont(clear=False)\n"
            "    view.rsa_free()\n",
        )
        assert "mont-drop-unscrubbed:mod.cow_child:new:view_in:mont_drop" in ids(
            report
        )

    def test_cow_view_clean_with_clear_true(self, tmp_path):
        report = run(
            tmp_path,
            "def cow_child(parent, child, msg):\n"
            "    view = parent.view_in(child)\n"
            "    rsa_private_operation(view, msg)\n"
            "    view.drop_mont(clear=True)\n"
            "    view.rsa_free()\n",
        )
        assert by_rule(report, "mont-drop-unscrubbed") == []
        assert by_rule(report, "free-unscrubbed-mont") == []

    def test_fields_are_tracked_across_methods(self, tmp_path):
        report = run(
            tmp_path,
            "class Server:\n"
            "    def start(self, process):\n"
            "        self.master = RsaStruct(process)\n"
            "        rsa_memory_align(self.master)\n"
            "\n"
            "    def restart(self):\n"
            "        rsa_memory_align(self.master)\n"
            "\n"
            "    def stop(self):\n"
            "        self.master.rsa_free()\n",
        )
        found = ids(report)
        # the field is class-blind and flow-insensitive across methods,
        # so both the re-align and the free are "possibly" findings
        assert "double-align:mod.Server.restart:field:master:align" in found
        assert "double-free:mod.Server.stop:field:master:free" in found
        assert all(
            f.message.startswith("possibly")
            for f in report.findings
            if f.function.startswith("mod.Server.")
        )


class TestInterprocedural:
    SOURCE = (
        "def serve_it(rsa, msg):\n"
        "    rsa_private_operation(rsa, msg)\n"
        "\n"
        "def entry(process, msg):\n"
        "    rsa = RsaStruct(process)\n"
        "    serve_it(rsa, msg)\n"
    )

    def test_finding_lands_in_the_callee(self, tmp_path):
        report = run(tmp_path, self.SOURCE)
        (finding,) = by_rule(report, "serve-before-align")
        assert finding.function == "mod.serve_it"
        assert finding.baseline_id == (
            "serve-before-align:mod.serve_it:param:rsa:serve"
        )

    def test_witness_names_the_caller(self, tmp_path):
        report = run(tmp_path, self.SOURCE)
        (finding,) = by_rule(report, "serve-before-align")
        rendered = [step.render() for step in finding.witness]
        assert any("mod.entry" in step and "calls serve_it" in step for step in rendered)
        assert any("param rsa enters -> loaded" in step for step in rendered)

    def test_caller_align_silences_the_callee(self, tmp_path):
        report = run(
            tmp_path,
            "def serve_it(rsa, msg):\n"
            "    rsa_private_operation(rsa, msg)\n"
            "\n"
            "def entry(process, msg):\n"
            "    rsa = RsaStruct(process)\n"
            "    rsa_memory_align(rsa)\n"
            "    serve_it(rsa, msg)\n",
        )
        assert by_rule(report, "serve-before-align") == []


class TestSecretTemp:
    def test_unscrubbed_temp_reported_on_both_exits(self, tmp_path):
        report = run(
            tmp_path,
            "def sloppy(process, data):\n"
            "    bn = bn_bin2bn(process, data)\n"
            "    return bn.top\n",
        )
        assert ids(report) == [
            "temp-unscrubbed:mod.sloppy:new:bn_bin2bn:exit",
            "temp-unscrubbed:mod.sloppy:new:bn_bin2bn:raise-exit",
        ]

    def test_try_finally_zeroize_clears_the_normal_exit(self, tmp_path):
        report = run(
            tmp_path,
            "def careful(process, data, log):\n"
            "    bn = bn_bin2bn(process, data)\n"
            "    try:\n"
            "        log(bn.top)\n"
            "    finally:\n"
            "        bn_clear_free(bn)\n",
        )
        # the normal exit is provably clean; the exceptional exit keeps
        # a "possibly" (may-analysis: the zeroize call itself can raise
        # partway)
        found = ids(report)
        assert "temp-unscrubbed:mod.careful:new:bn_bin2bn:exit" not in found
        (finding,) = by_rule(report, "temp-unscrubbed")
        assert finding.detail.endswith("raise-exit")
        assert finding.message.startswith("possibly")

    def test_bn_free_instead_of_clear_free_is_flagged(self, tmp_path):
        report = run(
            tmp_path,
            "def raw(process, data):\n"
            "    bn = bn_bin2bn(process, data)\n"
            "    bn.use()\n"
            "    bn_free(bn)\n",
        )
        assert "temp-freed-unscrubbed:mod.raw:new:bn_bin2bn:free_raw" in ids(report)


class TestKeyFileFlags:
    def test_nocache_open_close_is_clean_on_the_normal_exit(self, tmp_path):
        report = run(
            tmp_path,
            "def read_key(sys, path):\n"
            "    fd = sys.open(path, O_RDONLY | O_NOCACHE)\n"
            "    data = sys.read_all(fd)\n"
            "    sys.close(fd)\n"
            "    return data\n",
        )
        found = ids(report)
        assert not any("keyfile-no-nocache" in i for i in found)
        assert not any(i.endswith(":exit") for i in found)

    def test_cached_open_is_a_definite_integrated_finding(self, tmp_path):
        source = (
            "def read_key(sys, path):\n"
            "    fd = sys.open(path, O_RDONLY)\n"
            "    data = sys.read_all(fd)\n"
            "    sys.close(fd)\n"
            "    return data\n"
        )
        report = run(tmp_path, source)
        (finding,) = by_rule(report, "keyfile-no-nocache")
        assert not finding.message.startswith("possibly")

    def test_integrated_false_suppresses_the_nocache_rule_only(self, tmp_path):
        source = (
            "def read_key(sys, path):\n"
            "    fd = sys.open(path, O_RDONLY)\n"
            "    return sys.read_all(fd)\n"
        )
        default = run(tmp_path, source)
        relaxed = run(tmp_path, source, config=KeyStateConfig(integrated=False))
        assert by_rule(default, "keyfile-no-nocache")
        assert not by_rule(relaxed, "keyfile-no-nocache")
        # the close-on-all-paths obligation is level-independent
        assert by_rule(relaxed, "keyfile-open-escapes")

    def test_opaque_flags_variable_downgrades_to_possibly(self, tmp_path):
        report = run(
            tmp_path,
            "def read_key(sys, path, flags):\n"
            "    fd = sys.open(path, flags)\n"
            "    data = sys.read_all(fd)\n"
            "    sys.close(fd)\n"
            "    return data\n",
        )
        (finding,) = by_rule(report, "keyfile-no-nocache")
        assert finding.message.startswith("possibly")

    def test_unclosed_descriptor_violates_the_obligation(self, tmp_path):
        report = run(
            tmp_path,
            "def read_key(sys, path):\n"
            "    fd = sys.open(path, O_RDONLY | O_NOCACHE)\n"
            "    return sys.read_all(fd)\n",
        )
        assert "keyfile-open-escapes:mod.read_key:new:open:exit" in ids(report)


class TestReportShape:
    def test_ablated_automata_are_recorded_in_provenance(self, tmp_path):
        config = KeyStateConfig().without_automaton("key-file")
        report = run(tmp_path, "def noop():\n    pass\n", config=config)
        assert report.protocols == ["rsa-key", "secret-temp"]
        assert report.config["automata"] == ["rsa-key", "secret-temp"]

    def test_json_report_is_serializable_and_tagged(self, tmp_path):
        report = run(
            tmp_path,
            "def handshake(process, msg):\n"
            "    rsa = RsaStruct(process)\n"
            "    rsa_private_operation(rsa, msg)\n",
        )
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["tool"] == "keystate"
        assert payload["findings"][0]["rule"] == "serve-before-align"

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze(paths=[tmp_path / "does-not-exist"])


class TestCallIndex:
    SOURCE = (
        "def outer(x):\n"
        "    def inner():\n"
        "        return rsa_free(x)\n"
        "    return inner\n"
    )

    def test_terminals_keep_ast_walk_semantics(self, tmp_path):
        from repro.analysis.ir.project import Project
        from repro.analysis.keystate.engine import _call_index

        (tmp_path / "mod.py").write_text(self.SOURCE, encoding="utf-8")
        terminals, callees = _call_index(Project.load([tmp_path]))
        # a nested def's calls count for the enclosing function too
        assert terminals["mod.outer"] == {"rsa_free"}
        assert terminals["mod.outer.<locals>.inner"] == {"rsa_free"}
        assert callees["mod.outer"] == set()

    def test_built_once_per_analyze_for_all_automata(self, tmp_path, monkeypatch):
        from repro.analysis.keystate import engine

        real = engine._call_index
        calls = []
        monkeypatch.setattr(
            engine, "_call_index", lambda project: calls.append(1) or real(project)
        )
        report = run(tmp_path, self.SOURCE)
        assert len(report.protocols) == 3
        assert calls == [1]
