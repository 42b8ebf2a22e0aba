from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omcert.certificate import serialize_certificate
from omcert.cli import _HANDLERS, RunConfig, main, parse_args
from reference import parse as reference_parse


SRC = Path(__file__).resolve().parents[1] / "src"


JSON_MODULES = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}


def test_import_leaves_out_dataclasses_and_inspect(tmp_path):
    # a command-line run is mostly start-up: dataclasses pulls in inspect, ast,
    # dis and tokenize, argparse pulls in gettext, which imports locale when
    # it parses, and json compiles its scanner's and encoder's regexes. Only
    # modules the run adds count, so a site hook that already imported them
    # cannot fail this test. Reading a certificate does load json.
    search = str(tmp_path / "search.json")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import omcert.cli\n"
        "imported = set(sys.modules) - before\n"
        f"assert omcert.cli.main(['all', '--output', {str(tmp_path / 'all.json')!r}]) == 0\n"
        "print(' '.join(sorted(imported)))\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        f"assert omcert.cli.main(['lemma6', '--output', {search!r}]) == 0\n"
        "assert 'json' not in set(sys.modules) - before\n"
        f"assert omcert.cli.main(['verify-n8', '--certificate', {search!r}, '--format', 'text']) == 0\n"
        "assert 'json' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    imported, ran = (set(line.split()) for line in proc.stdout.splitlines()[:2])
    assert proc.stdout.splitlines()[-1] == "verdict: nonfactorizable"
    assert "omcert.cli" in imported
    assert not imported & {"dataclasses", "inspect"}
    assert not ran & {"argparse", "gettext", "locale", "dataclasses", "inspect", *JSON_MODULES}


def test_import_leaves_out_typing_and_contextlib():
    # annotations are strings, so no module imports typing at run time; under
    # -I -S nothing else loads it, nor the contextlib it pulls in
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import omcert.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "omcert.cli" in loaded
    assert not loaded & {"typing", "contextlib"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopes:
    def test_text_lists_26_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "topes", "--family", "alternating", "--n", "6", "--rank", "4",
            "--format", "text",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 26
        assert "+-+---" in lines

    def test_json_counts(self, capsys):
        code, out, _ = run_cli(capsys, "topes", "--family", "m2", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == doc["expected_count"] == 6
        assert doc["rank"] == 2


class TestAxioms:
    def test_small_instance_passes(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", "--family", "alternating", "--n", "4", "--rank", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["uniform_tope_axioms_pass"] and doc["covector_axioms_pass"]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "axioms", "--family", "m2", "--n", "4", "--format", "text"
        )
        assert code == 0
        assert "covector axioms: pass" in out


class TestStrongMap:
    def test_n6_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "strongmap", "--n", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["tope_inclusion"]["holds"] and doc["tope_inclusion"]["corank"] == 2
        assert doc["covector_containment"]["holds"]
        assert doc["methods_agree"]

    def test_n8_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "strongmap", "--n", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["tope_inclusion"]["holds"]
        assert doc["covector_containment"]["holds"]
        assert doc["methods_agree"]

    @pytest.mark.parametrize("n, rank", [(10, 9), (12, 4), (32, 4)])
    def test_both_methods_at_every_size(self, capsys, n, rank):
        # the covector cross-check lists only the rank-2 target's covectors,
        # so it runs past n = 10 and at high rank
        code, out, _ = run_cli(capsys, "strongmap", "--n", str(n), "--rank", str(rank))
        assert code == 0
        doc = json.loads(out)
        assert doc["tope_inclusion"] == {"holds": True, "corank": rank - 2}
        assert doc["covector_containment"] == {"holds": True, "corank": rank - 2}
        assert doc["methods_agree"]

    def test_failing_map_fails_by_both_methods(self, capsys):
        # alt(6, 1) has the one tope ++++++, so it lacks the pair-swap topes
        code, out, _ = run_cli(capsys, "strongmap", "--n", "6", "--rank", "1")
        assert code == 1
        doc = json.loads(out)
        assert not doc["tope_inclusion"]["holds"] and not doc["covector_containment"]["holds"]
        assert doc["methods_agree"]


class TestSearchCommand:
    def test_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "lemma6")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"]["combinations_checked"] == 184756
        assert doc["counts"]["survivor_count"] == 20

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "lemma6", "--format", "text", "--threads", "2")
        assert code == 0
        assert "combinations checked: 184756" in out
        assert "survivors: 20" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "search.json"
        code, out, _ = run_cli(capsys, "lemma6", "--output", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["counts"]["survivor_count"] == 20

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_unwritable_output(self, capsys, tmp_path, fmt):
        # an empty path is a path too: it is not written, and nothing goes to stdout
        for path in (str(tmp_path / "missing-dir" / "search.json"), ""):
            code, out, err = run_cli(capsys, "lemma6", "--format", fmt, "--output", path)
            assert code == 1
            assert out == ""
            assert f"cannot write {path}: " in err


class FullStdout:
    """A stdout on a full disk: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass


def test_unwritable_stdout(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    code = main(["topes"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["error: cannot write stdout: [Errno 28] No space left on device"]


def test_closed_stdout(capsys, monkeypatch):
    # an interpreter started with stdout closed (``omcert topes >&-``) sets
    # sys.stdout to None
    monkeypatch.setattr(sys, "stdout", None)
    code = main(["topes"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["error: cannot write stdout: [Errno 9] Bad file descriptor"]


class TestVerifyPipeline:
    def test_verify_from_certificate_file(self, capsys, tmp_path, search_certificate):
        path = tmp_path / "search.json"
        path.write_bytes(serialize_certificate(search_certificate))
        code, out, _ = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["conclusion"]["verdict"] == "nonfactorizable"

    def test_corrupted_certificate_exits_1(self, capsys, tmp_path, search_certificate):
        doc = json.loads(serialize_certificate(search_certificate))
        doc["survivors"][0]["topes"][0] = "000000"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert "invalid certificate" in err

    @pytest.mark.parametrize("text", ["[]", '{"version": 1}'])
    def test_malformed_certificate_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert "invalid certificate" in err

    @pytest.mark.parametrize(
        "payload", [b"[" * 200_000 + b"]" * 200_000, b"\xff\xfe{"], ids=["deep", "non-utf8"]
    )
    def test_unloadable_certificate_exits_1(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_bytes(payload)
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert f"error: cannot load {path}" in err

    def test_misstated_instance_exits_1(self, capsys, tmp_path, search_certificate):
        doc = json.loads(serialize_certificate(search_certificate))
        doc["instance"]["rank"] = 5
        doc["instance"]["source_rank"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert "instance.rank is 5, expected 3" in err
        assert "instance.source_rank is 7, expected 4" in err

    # every separator str.splitlines splits on, and its escape in a problem
    # path: the ASCII escapes of json.dumps, not the writer's, which leaves
    # U+0085, U+2028 and U+2029 raw
    @pytest.mark.parametrize(
        "separator, escaped",
        [
            ("\n", "\\n"), ("\r", "\\r"), ("\x0b", "\\u000b"), ("\x0c", "\\f"),
            ("\x1c", "\\u001c"), ("\x1d", "\\u001d"), ("\x1e", "\\u001e"),
            ("\x85", "\\u0085"), ("\u2028", "\\u2028"), ("\u2029", "\\u2029"),
        ],
        ids=["LF", "CR", "VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_key_cannot_forge_problem_lines(self, capsys, tmp_path, search_certificate, separator, escaped):
        doc = json.loads(serialize_certificate(search_certificate))
        doc[f"a{separator}invalid certificate: everything fine"] = 1
        doc["survivors"][0]["circuits"]["1,2,3,4"] = "+-+-0-"
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "invalid certificate: document.survivors[0].circuits.\"1,2,3,4\" is '+-+-0-', expected '+-+-00'",
            f'invalid certificate: document."a{escaped}invalid certificate: everything fine" is unexpected',
        ]

    def test_repeated_key_refused(self, capsys, tmp_path, search_certificate):
        # json keeps the last of a repeated key; a reader that keeps the first
        # would see version 99, so the document states two things
        text = serialize_certificate(search_certificate).decode("utf-8")
        text = text.replace('"version": 1,', '"version": 99,\n  "version": 1,', 1)
        text = text.replace('"n": 6,', '"n": 6,\n    "n\u2028": 0,\n    "n\u2028": 0,', 1)
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        # one line per repeat, in the order their objects close, each key escaped to one line
        assert err.splitlines() == [
            'invalid certificate: an object repeats the key "n\\u2028"',
            'invalid certificate: an object repeats the key "version"',
        ]

    def test_pipeline_certificate_named_as_such(self, capsys, tmp_path, contradiction_certificate):
        path = tmp_path / "all.json"
        path.write_bytes(serialize_certificate(contradiction_certificate))
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "invalid certificate: document is a full-pipeline (all) certificate,"
            " not a lemma6 search certificate"
        ]

    def test_cut_survivor_list_exits_1(self, capsys, tmp_path, search_certificate):
        doc = json.loads(serialize_certificate(search_certificate))
        doc["survivors"] = doc["survivors"][:1]
        doc["counts"]["survivor_count"] = 1
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "invalid certificate: document.counts.survivor_count is 1, expected 20",
            "invalid certificate: document.survivors has 1 entries, expected 20",
        ]

    def test_missing_certificate_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify-n8", "--certificate", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot load" in err

    def test_empty_certificate_path_is_not_a_rerun(self, capsys):
        code, out, err = run_cli(capsys, "verify-n8", "--certificate", "")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot load : ")

    def test_all_pipeline(self, capsys):
        code, out, _ = run_cli(capsys, "all", "--format", "text")
        assert code == 0
        assert "verdict: nonfactorizable" in out


# (exit code, sha256 of stdout) of each command at its defaults in each format;
# any change to a command's output bytes must be deliberate. The --output file
# of lemma6 and all holds the same bytes.
OUTPUT_PINS = {
    ("topes", "json"): (0, "6adbeeeab515c5c6680c4953c1673ed0d31a63c51a9cc5323580258e70cc3713"),
    ("topes", "text"): (0, "73269af11536fcbc064cec5e64244a2a9ece50c0629b27b9a9356e6c613be651"),
    ("axioms", "json"): (0, "c0e877409f3ce7fd961d1dd17a55ff91a807a03f8028c291caa432b973d9adf4"),
    ("axioms", "text"): (0, "e64d5c2f98fe984d977f4f567b12e3c66e8d064a5f0586c775db1ebafbf73cd6"),
    ("strongmap", "json"): (0, "440cda552f64468045a2a6c2ca854ea292a6619622d721abd0192bc1aaaf7360"),
    ("strongmap", "text"): (0, "323b23cd692a5938b4b3c7f432f2878434e329af71d01f5cbbd98fa9b68881f2"),
    ("lemma6", "json"): (0, "64f4e2c3c28f2e7c9cd02c4392bfc53380ac0e13d08acf5ad6cfb4d09c9bfaca"),
    ("lemma6", "text"): (0, "2d3cb3593afd5f145bb94c6c96b6c80f62eb476b7017254405dc1a4aeed416a4"),
    ("verify-n8", "json"): (0, "2508ca15969e1b5bd7cca9ea64c944a2be49bddb3fee1ba2bbaa0143cb500f79"),
    ("verify-n8", "text"): (0, "e38531fa6087b6316241b5584f0547f5fc9bfbf6d1d5a68a862db7c38ef51a4e"),
    ("all", "json"): (0, "2508ca15969e1b5bd7cca9ea64c944a2be49bddb3fee1ba2bbaa0143cb500f79"),
    ("all", "text"): (0, "e38531fa6087b6316241b5584f0547f5fc9bfbf6d1d5a68a862db7c38ef51a4e"),
}


@pytest.mark.parametrize("command, fmt", OUTPUT_PINS, ids=[f"{c}-{f}" for c, f in OUTPUT_PINS])
def test_output_pinned(capsys, tmp_path, search_certificate, command, fmt):
    argv = [command, "--format", fmt]
    if command == "verify-n8":
        path = tmp_path / "search.json"
        path.write_bytes(serialize_certificate(search_certificate))
        argv += ["--certificate", str(path)]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == OUTPUT_PINS[command, fmt]
    if command in ("lemma6", "all"):
        path = tmp_path / "out"
        code, out, _ = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (OUTPUT_PINS[command, fmt][0], "")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == OUTPUT_PINS[command, fmt][1]


@pytest.mark.parametrize("command", ["topes", "axioms", "strongmap", "lemma6", "verify-n8", "all"])
def test_json_output_is_json_dumps_of_the_document(capsys, command):
    # omcert writes JSON itself; its bytes are those json.dumps writes
    cfg = parse_args([command])
    doc = _HANDLERS[command](cfg).doc
    code, out, _ = run_cli(capsys, command, "--format", "json")
    assert code == 0
    assert out == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# Malformed option lists: unknown or missing options and values, bad types and choices
COMMAND_ERRORS = [
    ["all", "--bogus"],
    ["all", "--output"],
    ["all", "--output", "--threads", "2"],
    ["all", "stray"],
    ["topes", "--n", "six"],
    ["topes", "--rank=4.0"],
    ["lemma6", "--threads", "two"],
    ["all", "--format", "xml"],
    ["axioms", "--family=m3"],
    ["strongmap", "--family", "m2"],
    ["verify-n8", "--certificate"],
]
ABBREVIATED = ["all", "--out", "x.json"]  # argparse read this as --output; omcert does not


class TestUsageErrors:
    def test_odd_n_for_m2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topes", "--family", "m2", "--n", "5"])
        assert exc.value.code == 2

    def test_odd_n_for_strongmap(self, capsys):
        # strongmap's target is always the pair-swap instance (family m2)
        with pytest.raises(SystemExit) as exc:
            main(["strongmap", "--n", "7"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: omcert strongmap ")

    def test_rank_override_for_m2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topes", "--family", "m2", "--n", "6", "--rank", "3"])
        assert exc.value.code == 2

    def test_bad_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lemma6", "--threads", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: omcert lemma6 ")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_rank_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["topes", "--family", "alternating", "--n", "4", "--rank", "9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [ABBREVIATED, *COMMAND_ERRORS], ids=" ".join)
    def test_usage_names_the_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: omcert {argv[0]} ")
        assert f"omcert {argv[0]}: error: " in err


# Instances whose tope cover passes cli.COVER_BOUND: C(n, rank-1) * 2**(rank-1)
# completions. They are usage errors, found before anything is built, and stay out
# of COMMAND_ERRORS and PARSER_CORPUS: the argparse reference knows no instance size.
OVERSIZED = [
    ["topes", "--n", "32", "--rank", "16"],
    ["axioms", "--n", "24", "--rank", "12"],
    ["strongmap", "--n", "32", "--rank", "8"],
]


class TestOversizedInstances:
    @pytest.mark.parametrize("argv", OVERSIZED, ids=" ".join)
    def test_refused_before_building(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: omcert {argv[0]} ")
        assert "is too large: its tope cover visits" in err

    def test_largest_ground_set_at_small_rank_parses(self):
        cfg = parse_args(["topes", "--n", "32", "--rank", "3"])
        assert (cfg.command, cfg.n, cfg.rank) == ("topes", 32, 3)

    def test_boundary_follows_the_cover_size(self, capsys):
        # C(24, 4) * 2**4 = 170,016 completions are within the bound; C(25, 4) * 2**4 = 202,400 are not
        assert parse_args(["topes", "--n", "24", "--rank", "5"]).n == 24
        with pytest.raises(SystemExit) as exc:
            parse_args(["topes", "--n", "25", "--rank", "5"])
        assert exc.value.code == 2
        assert "visits 202400 completions, more than 200000" in capsys.readouterr().err


class TestCovectorLimit:
    """``axioms`` checks the covector axioms on every pair of covectors, so it
    takes at most cli.COVECTOR_BOUND = 1,000 of them; past that it is a
    usage error before anything is built. Elimination reads one index per
    separation set, so the ground set has no limit of its own. ``strongmap``
    cross-checks by covectors at every size; ``topes`` lists no covectors."""

    @pytest.mark.parametrize(
        "argv",
        [["axioms", "--n", "11", "--rank", "3"], ["axioms", "--family", "m2", "--n", "12"]],
        ids=" ".join,
    )
    def test_past_ten_elements_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.splitlines()[-1] == "covector axioms: pass"

    def test_bound_follows_the_covector_count(self, capsys):
        # alternating rank 3: 963 covectors at n = 16 are within the bound, 1,091 at n = 17 are not
        assert parse_args(["axioms", "--n", "16", "--rank", "3"]).n == 16
        with pytest.raises(SystemExit) as exc:
            parse_args(["axioms", "--n", "17", "--rank", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: omcert axioms ")
        assert "n=17, rank=3 is too large: its 1091 covectors are more than the 1000" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["axioms", "--n", "10", "--rank", "3"],
            ["axioms", "--n", "8", "--rank", "4"],  # 929 covectors, within the bound
            ["topes", "--n", "11", "--rank", "3"],
            ["strongmap", "--n", "12"],
        ],
        ids=" ".join,
    )
    def test_within_the_limit_or_other_commands_parse(self, argv):
        cfg = parse_args(argv)
        assert (cfg.command, cfg.n) == (argv[0], int(argv[2]))

    def test_strongmap_past_the_limit_reports_covectors(self, capsys):
        code, out, _ = run_cli(capsys, "strongmap", "--n", "12", "--format", "text")
        assert code == 0
        assert out.splitlines()[1:] == ["tope inclusion: holds (corank 2)", "covector containment: holds"]

    @pytest.mark.parametrize("n, rank, count", [(10, 9, 57003), (8, 5, 2467)])
    def test_too_many_covectors_refused(self, capsys, n, rank, count):
        with pytest.raises(SystemExit) as exc:
            parse_args(["axioms", "--n", str(n), "--rank", str(rank)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: omcert axioms ")
        assert f"is too large: its {count} covectors are more than the 1000" in err


# Command lines that the argparse parser in tests/reference.py and cli.parse_args
# must read alike: every command and option, both value forms, repeats, values
# that start with a dash, and every usage error in TestUsageErrors but ABBREVIATED.
PARSER_CORPUS = [
    ["topes"],
    ["topes", "--family", "m2", "--n", "8", "--format", "text", "--output", "t.txt"],
    ["topes", "--family=alternating", "--n=7", "--rank=3", "--format=json", "--output=t.json"],
    ["axioms", "--family", "m2", "--n", "4"],
    ["axioms", "--n", "5", "--rank", "2", "--n", "6"],
    ["strongmap"],
    ["strongmap", "--n", "8", "--rank", "4", "--format", "text"],
    ["strongmap", "--rank=2", "--n=4", "--output", "-"],
    ["lemma6", "--threads", "3", "--threads=1"],
    ["lemma6", "--output=", "--format", "text"],
    ["verify-n8", "--certificate", "search.json", "--threads", "2"],
    ["verify-n8", "--certificate", ""],
    ["verify-n8", "--certificate=a=b", "--certificate", "c.json"],
    ["all"],
    ["all", "--threads", "+2", "--format=text", "--output", "all.json"],
    ["all", "--threads", "-1"],
    ["all", "--threads", " 3 "],
    ["topes", "--n", "-4"],
    ["topes", "--family", "m2", "--n", "5"],
    ["strongmap", "--n", "7"],
    ["topes", "--family", "m2", "--n", "6", "--rank", "3"],
    ["lemma6", "--threads", "0"],
    ["frobnicate"],
    [],
    ["--format", "json", "all"],
    ["topes", "--family", "alternating", "--n", "4", "--rank", "9"],
    ["topes", "--n", "33"],
    ["all", "--bogus", "--threads", "2"],
    ["all", "--output", "--threads"],
    ["all", "--output", "-o"],
    ["all", "--threads", "x"],
    ["all", "--threads="],
    ["topes", "--family", "m3"],
    ["topes", "--certificate", "c.json"],
    ["lemma6", "--n", "6"],
    ["all", "-"],
    ["all", "--help=1"],
    *COMMAND_ERRORS,
]


def parsed(parse, argv):
    try:
        return parse(argv)
    except SystemExit as exc:
        return f"exit {exc.code}"


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "empty")
def test_parser_matches_argparse_reference(capsys, argv):
    expected = parsed(reference_parse, argv)
    assert parsed(parse_args, argv) == expected
    assert expected == "exit 2" or type(expected) is RunConfig


HELP_OPTIONS = {
    "topes": ["--format", "--output", "--family", "--n", "--rank"],
    "axioms": ["--format", "--output", "--family", "--n", "--rank"],
    "strongmap": ["--format", "--output", "--n", "--rank"],
    "lemma6": ["--format", "--output", "--threads"],
    "verify-n8": ["--format", "--output", "--threads", "--certificate"],
    "all": ["--format", "--output", "--threads"],
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: omcert ")
    listed = [line.split()[0] for line in out.split("commands:\n")[1].splitlines()]
    assert listed == list(HELP_OPTIONS)


@pytest.mark.parametrize("command", HELP_OPTIONS)
def test_help_lists_every_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: omcert {command} [-h] ")
    listed = [line.split()[0] for line in out.split("options:\n")[1].splitlines()]
    assert listed == ["-h,", *HELP_OPTIONS[command]]
