"""Tests for the command-line schema tool."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "schema.wal")


def run(db, *args, capsys=None):
    code = main(["--db", db, *args])
    return code


class TestLifecycle:
    def test_init(self, db, capsys):
        assert run(db, "init") == 0
        out = capsys.readouterr().out
        assert "T_object" in out and "T_null" in out

    def test_add_show_drop(self, db, capsys):
        assert run(db, "add-type", "T_person", "-p", "person.name") == 0
        assert run(db, "add-type", "T_student", "-s", "T_person") == 0
        assert run(db, "show", "T_student") == 0
        out = capsys.readouterr().out
        assert "T_person" in out
        assert run(db, "drop-type", "T_student") == 0

    def test_edges_and_props(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b")
        assert run(db, "add-edge", "T_b", "T_a") == 0
        assert "P = ['T_a']" in capsys.readouterr().out
        assert run(db, "drop-edge", "T_b", "T_a") == 0
        assert run(db, "add-prop", "T_a", "a.x", "--name", "x") == 0
        assert run(db, "drop-prop", "T_a", "a.x") == 0

    def test_state_is_durable_across_invocations(self, db, capsys):
        run(db, "add-type", "T_persisted")
        assert run(db, "show") == 0
        assert "T_persisted" in capsys.readouterr().out

    def test_checkpoint(self, db, capsys):
        run(db, "add-type", "T_a")
        assert run(db, "checkpoint") == 0
        assert run(db, "show") == 0
        assert "T_a" in capsys.readouterr().out


class TestChecksAndRendering:
    def test_check_ok(self, db, capsys):
        run(db, "add-type", "T_a")
        assert run(db, "check") == 0
        out = capsys.readouterr().out
        assert "axioms: ok" in out and "oracle: ok" in out

    def test_render(self, db, capsys):
        run(db, "add-type", "T_a")
        assert run(db, "render") == 0
        assert "T_a" in capsys.readouterr().out

    def test_dot_views(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b", "-s", "T_a")
        assert run(db, "dot") == 0
        minimal = capsys.readouterr().out
        assert run(db, "dot", "--essential") == 0
        essential = capsys.readouterr().out
        assert '"T_b" -> "T_a"' in minimal
        # The essential view additionally draws the implicit root edge.
        assert essential.count("->") >= minimal.count("->")

    def test_tables(self, db, capsys):
        run(db, "init")
        assert run(db, "tables") == 0
        out = capsys.readouterr().out
        assert "Apply-all operation" in out
        assert "Axiom" in out
        assert "**subtyping**" in out


class TestRejections:
    def test_duplicate_type_rejected(self, db, capsys):
        run(db, "add-type", "T_a")
        assert run(db, "add-type", "T_a") == 1
        assert "rejected" in capsys.readouterr().err

    def test_cycle_rejected(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b", "-s", "T_a")
        assert run(db, "add-edge", "T_a", "T_b") == 1

    def test_root_edge_drop_rejected(self, db, capsys):
        run(db, "add-type", "T_a")
        assert run(db, "drop-edge", "T_a", "T_object") == 1

    def test_undo_then_nothing_to_undo(self, db, capsys):
        run(db, "add-type", "T_a")
        assert run(db, "undo") == 0
        assert "undone: add type 'T_a'" in capsys.readouterr().out
        run(db, "checkpoint")
        capsys.readouterr()
        assert run(db, "undo") == 1
        err = capsys.readouterr().err
        assert "[nothing-to-undo]" in err
        assert "journal-corrupt" not in err

    def test_rejected_op_not_persisted(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_a")  # rejected
        assert run(db, "check") == 0  # recovery still clean


class TestLint:
    def test_lint_reports_findings(self, db, capsys):
        run(db, "add-type", "T_a", "-p", "a.p")
        run(db, "add-type", "T_b", "-s", "T_a")
        run(db, "add-edge", "T_b", "T_a")  # no-op, already essential
        run(db, "add-type", "T_c", "-s", "T_b")
        run(db, "add-edge", "T_c", "T_a")  # redundant (via T_b)
        capsys.readouterr()
        assert run(db, "lint") == 0
        out = capsys.readouterr().out
        assert "redundant-essential-supertype" in out
        assert "finding(s)" in out

    def test_lint_clean_schema(self, db, capsys):
        run(db, "add-type", "T_a", "-p", "a.p")
        capsys.readouterr()
        assert run(db, "lint") == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestLintPlan:
    """Static analysis of whole evolution plans through the CLI."""

    @pytest.fixture
    def chain_db(self, db):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b", "-s", "T_a")
        run(db, "add-type", "T_c", "-s", "T_b")
        return db

    def _write_plan(self, tmp_path, ops, name="plan.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"operations": ops}))
        return str(path)

    def test_cycle_plan_statically_rejected(
        self, chain_db, tmp_path, capsys
    ):
        plan = self._write_plan(tmp_path, [
            {"code": "MT-ASR", "subject": "T_a", "supertype": "T_c"},
        ])
        wal_before = Path(chain_db).read_bytes()
        assert run(chain_db, "lint", "--plan", plan) == 1
        out = capsys.readouterr().out
        assert "doomed-operation" in out
        assert "error" in out
        # Dry-run: neither the schema nor the WAL was touched.
        assert Path(chain_db).read_bytes() == wal_before
        capsys.readouterr()
        assert run(chain_db, "check") == 0

    def test_order_hazard_flagged(self, chain_db, tmp_path, capsys):
        plan = self._write_plan(tmp_path, [
            {"code": "MT-DSR", "subject": "T_c", "supertype": "T_b"},
            {"code": "MT-DSR", "subject": "T_b", "supertype": "T_a"},
        ])
        assert run(chain_db, "lint", "--plan", plan) == 0  # warnings only
        out = capsys.readouterr().out
        assert "order-dependence-hazard" in out
        assert "Orion" in out

    def test_fail_on_warning(self, chain_db, tmp_path, capsys):
        plan = self._write_plan(tmp_path, [
            {"code": "MT-DSR", "subject": "T_c", "supertype": "T_b"},
            {"code": "MT-DSR", "subject": "T_b", "supertype": "T_a"},
        ])
        assert run(
            chain_db, "lint", "--plan", plan, "--fail-on", "warning"
        ) == 1

    def test_fail_on_never(self, chain_db, tmp_path, capsys):
        plan = self._write_plan(tmp_path, [
            {"code": "MT-ASR", "subject": "T_a", "supertype": "T_c"},
        ])
        assert run(
            chain_db, "lint", "--plan", plan, "--fail-on", "never"
        ) == 0

    def test_sarif_output_is_valid(self, chain_db, tmp_path, capsys):
        plan = self._write_plan(tmp_path, [
            {"code": "MT-ASR", "subject": "T_a", "supertype": "T_c"},
        ])
        assert run(
            chain_db, "lint", "--plan", plan, "--format", "sarif",
            "--fail-on", "never",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        results = doc["runs"][0]["results"]
        assert any(r["ruleId"] == "doomed-operation" for r in results)
        doomed = next(
            r for r in results if r["ruleId"] == "doomed-operation"
        )
        loc = doomed["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == plan

    def test_json_output(self, chain_db, tmp_path, capsys):
        plan = self._write_plan(tmp_path, [
            {"code": "AT", "name": "T_d", "supertypes": ["T_c"]},
        ])
        assert run(
            chain_db, "lint", "--plan", plan, "--format", "json"
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["plan"]["steps"] == 1

    def test_select_and_ignore(self, chain_db, tmp_path, capsys):
        plan = self._write_plan(tmp_path, [
            {"code": "MT-ASR", "subject": "T_a", "supertype": "T_c"},
            {"code": "MT-ASR", "subject": "T_a", "supertype": "T_c"},
        ])
        assert run(
            chain_db, "lint", "--plan", plan,
            "--select", "duplicate-step",
        ) == 0
        out = capsys.readouterr().out
        assert "duplicate-step" in out
        assert "doomed-operation" not in out
        assert run(
            chain_db, "lint", "--plan", plan,
            "--ignore", "doomed-operation", "--ignore", "duplicate-step",
        ) == 0
        assert "doomed-operation" not in capsys.readouterr().out

    def test_unknown_select_exits_2(self, chain_db, capsys):
        assert run(chain_db, "lint", "--select", "no-such-rule") == 2
        assert "no rule" in capsys.readouterr().err

    def test_malformed_plan_exits_1(self, chain_db, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        assert run(chain_db, "lint", "--plan", str(path)) == 1
        assert "rejected" in capsys.readouterr().err

    def test_wal_journal_as_plan(self, chain_db, tmp_path, capsys):
        """A WAL from one schema can be linted as a plan against another."""
        other = str(tmp_path / "other.wal")
        run(other, "init")
        capsys.readouterr()
        assert run(
            other, "lint", "--plan", chain_db, "--fail-on", "never"
        ) == 0
        out = capsys.readouterr().out
        assert "plan: 3 step(s)" in out


class TestLintFix:
    """The ``--fix`` applier, ``--diff`` dry-run, and baselines."""

    @pytest.fixture
    def chain_db(self, db):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b", "-s", "T_a")
        run(db, "add-type", "T_c", "-s", "T_b")
        return db

    def _doomed_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"operations": [
            {"code": "AT", "name": "T_d",
             "supertypes": ["T_c"], "properties": []},
            {"code": "DT", "name": "T_ghost"},
        ]}))
        return str(path)

    def test_fix_rewrites_the_plan_in_place(
        self, chain_db, tmp_path, capsys
    ):
        plan = self._doomed_plan(tmp_path)
        assert run(chain_db, "lint", "--plan", plan, "--fix") == 0
        assert "applied 1 fix" in capsys.readouterr().err
        doc = json.loads(Path(plan).read_text())
        assert len(doc["operations"]) == 1
        assert doc["operations"][0]["code"] == "AT"

    def test_fix_is_idempotent(self, chain_db, tmp_path, capsys):
        plan = self._doomed_plan(tmp_path)
        run(chain_db, "lint", "--plan", plan, "--fix")
        first = Path(plan).read_text()
        capsys.readouterr()
        assert run(chain_db, "lint", "--plan", plan, "--fix") == 0
        assert "applied 0 fix" in capsys.readouterr().err
        assert Path(plan).read_text() == first

    def test_diff_is_a_dry_run(self, chain_db, tmp_path, capsys):
        plan = self._doomed_plan(tmp_path)
        before = Path(plan).read_text()
        assert run(
            chain_db, "lint", "--plan", plan, "--fix", "--diff"
        ) == 0
        out = capsys.readouterr().out
        assert "T_ghost" in out and out.lstrip().startswith("---")
        assert Path(plan).read_text() == before

    def test_fix_requires_plan(self, chain_db, capsys):
        assert run(chain_db, "lint", "--fix") == 2
        assert "--plan" in capsys.readouterr().err

    def test_diff_requires_fix(self, chain_db, tmp_path, capsys):
        plan = self._doomed_plan(tmp_path)
        assert run(chain_db, "lint", "--plan", plan, "--diff") == 2

    def test_baseline_write_then_check(self, chain_db, tmp_path, capsys):
        plan = self._doomed_plan(tmp_path)
        assert run(
            chain_db, "lint", "--plan", plan, "--baseline", "write"
        ) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        assert Path(plan + ".lint-baseline.json").exists()
        # Known findings are suppressed, so the gate passes now.
        assert run(
            chain_db, "lint", "--plan", plan, "--baseline", "check"
        ) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_baseline_check_still_fails_on_new_findings(
        self, chain_db, tmp_path, capsys
    ):
        plan = self._doomed_plan(tmp_path)
        run(chain_db, "lint", "--plan", plan, "--baseline", "write")
        doc = json.loads(Path(plan).read_text())
        doc["operations"].append({"code": "DT", "name": "T_new_ghost"})
        Path(plan).write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(
            chain_db, "lint", "--plan", plan, "--baseline", "check"
        ) == 1
        assert "T_new_ghost" in capsys.readouterr().out


class TestImpactNormalizeHistory:
    def test_impact_drop_type(self, db, capsys):
        run(db, "add-type", "T_a", "-p", "a.p")
        run(db, "add-type", "T_b", "-s", "T_a")
        capsys.readouterr()
        assert run(db, "impact", "drop-type", "T_a") == 0
        out = capsys.readouterr().out
        assert "removes types: ['T_a']" in out
        # Dry-run: nothing actually changed.
        assert run(db, "show", "T_a") == 0

    def test_impact_drop_edge(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b", "-s", "T_a")
        capsys.readouterr()
        assert run(db, "impact", "drop-edge", "T_b", "T_a") == 0
        assert "P(T_b)" in capsys.readouterr().out

    def test_history_lists_operations(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "add-type", "T_b", "-s", "T_a")
        capsys.readouterr()
        assert run(db, "history") == 0
        out = capsys.readouterr().out
        assert "AT" in out and "T_b" in out

    def test_history_survives_restart(self, db, capsys):
        run(db, "add-type", "T_a")
        capsys.readouterr()
        # Each CLI call reopens the WAL: history is rebuilt from disk.
        assert run(db, "history") == 0
        assert "T_a" in capsys.readouterr().out

    def test_history_empty_after_checkpoint(self, db, capsys):
        run(db, "add-type", "T_a")
        run(db, "checkpoint")
        capsys.readouterr()
        assert run(db, "history") == 0
        assert "no journaled operations" in capsys.readouterr().out

    def test_normalize_command(self, db, capsys):
        run(db, "add-type", "T_a", "-p", "a.p")
        run(db, "add-type", "T_b", "-s", "T_a", "-p", "b.p")
        run(db, "add-type", "T_c", "-s", "T_b", "-p", "c.p")
        run(db, "add-edge", "T_c", "T_a")  # redundant declaration
        capsys.readouterr()
        assert run(db, "normalize") == 0
        out = capsys.readouterr().out
        assert "dropped 1 supertype" in out
        # Durable: the normalized state survives reopen.
        assert run(db, "lint") == 0
        out = capsys.readouterr().out
        assert "redundant" not in out
        assert "0 finding(s)" in out


class TestRecoverCommand:
    def corrupt(self, db):
        with open(db, "ab") as fh:
            fh.write(b"#W1 0 9 00000000 junkjunk\n")

    def test_recover_clean_db(self, db, capsys):
        run(db, "add-type", "T_a")
        capsys.readouterr()
        assert run(db, "recover") == 0
        out = capsys.readouterr().out
        assert "clean" in out and "replay verified" in out

    def test_strict_mode_diagnoses_and_fails(self, db, capsys):
        run(db, "add-type", "T_a")
        self.corrupt(db)
        capsys.readouterr()
        assert run(db, "recover", "--mode", "strict") == 1
        err = capsys.readouterr().err
        assert "wal-corrupt-record" in err
        # Diagnosis only: the damage is still there.
        assert b"junkjunk" in Path(db).read_bytes()

    def test_salvage_mode_heals_and_verifies(self, db, capsys):
        run(db, "add-type", "T_a")
        self.corrupt(db)
        capsys.readouterr()
        assert run(db, "recover") == 0  # salvage is the default
        out = capsys.readouterr().out
        assert "quarantined" in out and "replay verified" in out
        assert Path(db + ".corrupt").exists()
        assert b"junkjunk" not in Path(db).read_bytes()
        # The healed database opens normally again.
        assert run(db, "show") == 0
        assert "T_a" in capsys.readouterr().out

    def test_open_refuses_corrupt_db_with_hint(self, db, capsys):
        run(db, "add-type", "T_a")
        self.corrupt(db)
        capsys.readouterr()
        assert run(db, "show") == 1
        assert "salvage" in capsys.readouterr().err

    def test_recover_never_written_db(self, db, capsys):
        """Recovering a database that was never written is a clean no-op:
        exit 0, nothing created, and the report says so."""
        assert run(db, "recover") == 0
        out = capsys.readouterr().out
        assert "clean" in out and "0 record(s) live" in out
        assert "replay verified" in out
        assert not Path(db).exists()  # recovery creates nothing

    def test_recover_db_path_in_empty_directory(self, tmp_path, capsys):
        """An existing but empty directory (fresh volume, first boot):
        same clean no-op, for every --mode."""
        db = str(tmp_path / "empty" / "schema.wal")
        Path(db).parent.mkdir()
        for mode in ("strict", "salvage"):
            assert run(db, "recover", "--mode", mode) == 0
            assert "replay verified" in capsys.readouterr().out
        assert list(Path(db).parent.iterdir()) == []

    def test_recover_with_only_quarantine_sidecar(self, db, capsys):
        """A directory holding only a .corrupt sidecar — the WAL itself
        was lost after a past salvage.  Recovery must succeed with an
        empty store and must not reingest the quarantined bytes."""
        sidecar = Path(db + ".corrupt")
        sidecar.write_bytes(
            b'#QUARANTINE {"reason": "old damage", "bytes": 9}\n'
            b"#W1 0 9 00000000 junkjunk\n"
        )
        assert run(db, "recover") == 0
        out = capsys.readouterr().out
        assert "clean" in out and "replay verified: 2 type(s)" in out
        # The sidecar is evidence, not input: untouched, not replayed.
        assert b"junkjunk" in sidecar.read_bytes()
        assert not Path(db).exists()


class TestBackendUrls:
    """--db takes a path or a file: URL (see docs/storage.md)."""

    def test_lifecycle_through_backend_url(self, tmp_path, capsys):
        url = f"file:{tmp_path}/store"
        assert run(url, "add-type", "T_person", "-p", "person.name") == 0
        assert run(url, "add-type", "T_student", "-s", "T_person") == 0
        assert run(url, "checkpoint") == 0
        assert run(url, "show") == 0
        out = capsys.readouterr().out
        assert "T_student" in out
        assert run(url, "check") == 0
        assert (tmp_path / "store.checkpoint").exists()

    def test_recover_through_backend_url(self, tmp_path, capsys):
        url = f"file:{tmp_path}/store"
        run(url, "add-type", "T_a")
        capsys.readouterr()
        assert run(url, "recover") == 0
        assert "replay verified" in capsys.readouterr().out
        assert (tmp_path / "store").exists()

    def test_sqlite_url_names_the_removal(self, tmp_path, capsys):
        assert run(f"sqlite:{tmp_path}/store.sqlite", "init") == 1
        assert "sqlite storage backend was removed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scheme_fails_with_typed_error(self, capsys):
        assert run("redis://localhost/0", "init") == 1
        assert "unknown storage backend" in capsys.readouterr().err


class TestDurabilityFlags:
    def test_fsync_is_an_unknown_option(self, db, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--db", db, "--fsync=always", "add-type", "T_a"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fsync" in capsys.readouterr().err
        assert "--fsync" not in build_parser().format_help()

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_bad_checkpoint_every_is_a_usage_error(self, db, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["--db", db, "--checkpoint-every", value, "init"])
        assert exc.value.code == 2
        assert "--checkpoint-every" in capsys.readouterr().err
        assert not Path(db).exists()

    def test_checkpoint_every_triggers_auto_checkpoint(self, db, capsys):
        assert main(["--db", db, "--checkpoint-every", "1",
                     "add-type", "T_a"]) == 0
        assert Path(db).read_bytes() == b""  # WAL folded into checkpoint
        assert Path(db + ".checkpoint").exists()
        assert run(db, "show") == 0
        assert "T_a" in capsys.readouterr().out


class TestServeFlags:
    def test_replica_and_primary_roles_are_exclusive(self, db, capsys):
        code = main(["--db", db, "serve",
                     "--replica-of", "127.0.0.1:9990",
                     "--replication-port", "9991"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["nocolon", "host:", ":123", "h:xy"])
    def test_malformed_replica_of_is_a_usage_error(self, db, capsys, target):
        code = main(["--db", db, "serve", "--replica-of", target])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_parse_host_port(self):
        from repro.cli import _parse_host_port

        assert _parse_host_port("127.0.0.1:9990") == ("127.0.0.1", 9990)
        assert _parse_host_port("[::1]:80") == ("[::1]", 80)
        with pytest.raises(ValueError):
            _parse_host_port("80")
