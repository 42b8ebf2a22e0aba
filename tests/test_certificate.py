from __future__ import annotations

import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omcert.certificate
import omcert.contradiction
import omcert.search
from omcert import build_contradiction_certificate, build_search_instance, enumerate_survivors
from omcert.certificate import (
    search_certificate_from_document,
    serialize_certificate,
    validate_certificate_document,
    validate_contradiction_document,
    validate_search_document,
)
from omcert.cli import main
from omcert.matroid import circuit_table
from omcert.search import CIRCUIT_SUPPORTS, VerificationError
from reference import PLAIN_KEY

# sha256 of the emitted certificates; any change to their bytes must be deliberate
SEARCH_SHA256 = "64f4e2c3c28f2e7c9cd02c4392bfc53380ac0e13d08acf5ad6cfb4d09c9bfaca"
FULL_SHA256 = "2508ca15969e1b5bd7cca9ea64c944a2be49bddb3fee1ba2bbaa0143cb500f79"


SEARCH_INSTANCE_FIELDS = (
    "n",
    "rank",
    "choose",
    "source_family",
    "source_rank",
    "target_family",
    "target_rank",
)
PIPELINE_INSTANCE_FIELDS = (
    "n",
    "source_family",
    "source_rank",
    "target_family",
    "target_rank",
    "intermediate_rank",
)


def copied(doc):
    return json.loads(json.dumps(doc))


def altered(value):
    """A different value of the same JSON type."""
    return value + 1 if isinstance(value, int) else value + "x"


def duplicated(entries):
    return entries + entries[:1]


# Edits that a field-by-field validator once accepted: (flavor, path, new
# value or a function of the old one).
EDITS = {
    "assumption-unverified": ("full", ("conclusion", "assumptions", 0, "verified"), False),
    "assumptions-emptied": ("full", ("conclusion", "assumptions"), []),
    "reduction-count": ("full", ("counts", "reduction_source_topes"), 999),
    "premise-method": ("full", ("conclusion", "premise_strong_map", "method"), "vibes"),
    "duplicated-restriction": ("full", ("restrictions",), duplicated),
    "extra-key": ("full", ("extra",), True),
    "source-topes-count": ("search", ("counts", "source_topes"), 27),
    "pool-size-count": ("search", ("counts", "pool_size"), 21),
}


# text that reaches every escape: control characters, quotes, backslashes,
# characters json leaves raw (DEL, NEL, U+2028, U+2029) and astral ones
JSON_TEXT = st.text(st.sampled_from('\x00\b\t\n\x0b\f\r\x1f"\\/ +-,\x7f\x85\u2028\u2029\U0001f600') | st.characters(codec="utf-8"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


@pytest.fixture(scope="module")
def search_doc(search_certificate):
    return json.loads(serialize_certificate(search_certificate))


@pytest.fixture(scope="module")
def contradiction_doc(contradiction_certificate):
    return json.loads(serialize_certificate(contradiction_certificate))


class TestSerialization:
    @settings(max_examples=300, deadline=None)
    @example(doc={})
    @example(doc={"": [], "a": {}, "b": [[], {}, [[{}]], {"c": {"d": []}}], "e": ""})
    @given(doc=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=4))
    def test_writer_is_json_dumps(self, doc):
        assert serialize_certificate(doc) == (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()

    @pytest.mark.parametrize(
        "doc", [{"a": 1.0}, {"a": (1,)}, {"a": [b"x"]}, {1: "x"}, {"a": {None: 1}}],
        ids=["float", "tuple", "bytes", "int-key", "none-key"],
    )
    def test_writer_refuses_other_types(self, doc):
        with pytest.raises(TypeError):
            serialize_certificate(doc)

    def test_deterministic_bytes(self, search_certificate):
        assert serialize_certificate(search_certificate) == serialize_certificate(
            search_certificate
        )

    def test_top_level_schema(self, search_doc, contradiction_doc):
        for doc in (search_doc, contradiction_doc):
            assert list(doc) == [
                "version",
                "instance",
                "counts",
                "survivors",
                "restrictions",
                "conclusion",
            ]
            assert doc["version"] == 1

    def test_search_counts(self, search_doc):
        assert search_doc["counts"]["combinations_checked"] == 184756
        assert search_doc["counts"]["survivor_count"] == 20
        assert search_doc["counts"]["source_topes"] == 26
        assert search_doc["counts"]["target_topes"] == 6

    def test_survivor_entry_shape(self, search_doc):
        entry = search_doc["survivors"][0]
        assert len(entry["topes"]) == 16
        assert entry["circuits"] == {"1,2,3,4": "+-+-00", "1,2,5,6": "+-00-+"}
        assert set(entry["excluded_check"]) == {"+-+---", "+----+"}
        assert len(entry["vc_witnesses"]) == 15

    def test_contradiction_conclusion(self, contradiction_doc):
        conclusion = contradiction_doc["conclusion"]
        assert conclusion["circuit_a"] == "+-00-+00"
        assert conclusion["circuit_b"] == "+-00+-00"
        assert conclusion["contradiction"] is True
        assert conclusion["verdict"] == "nonfactorizable"
        assert conclusion["premise_strong_map"]["corank"] == 2

    def test_restriction_entries(self, contradiction_doc):
        kept = [entry["kept"] for entry in contradiction_doc["restrictions"]]
        assert kept == ["1,2,3,4,5,6", "1,2,5,6,7,8"]
        for entry in contradiction_doc["restrictions"]:
            assert entry["source_restriction_is_alternating"] is True
            assert entry["target_restriction_matches"] is True

    @pytest.mark.parametrize("threads", [1, 3])
    def test_certificate_bytes_pinned(self, threads, tmp_path, capsys):
        search = enumerate_survivors(build_search_instance())
        full = build_contradiction_certificate(search_cert=search)
        assert hashlib.sha256(serialize_certificate(search)).hexdigest() == SEARCH_SHA256
        assert hashlib.sha256(serialize_certificate(full)).hexdigest() == FULL_SHA256
        # the CLI's --threads is accepted and ignored: the pipeline bytes stay pinned
        path = tmp_path / "full.json"
        assert main(["all", "--threads", str(threads), "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_SHA256

    def test_thread_count_changes_nothing(self, tmp_path, capsys):
        # --threads is accepted and ignored; a huge value starts no threads
        path = tmp_path / "search.json"
        assert main(["lemma6", "--threads", "1000000", "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SEARCH_SHA256

    def test_verify_n8_output_bytes_pinned(self, tmp_path, capsys):
        # the output is rebuilt, not copied from the input: reordering every
        # object's keys in the search certificate leaves its bytes unchanged
        def keys_reversed(value):
            if type(value) is dict:
                return {key: keys_reversed(value[key]) for key in reversed(value)}
            if type(value) is list:
                return [keys_reversed(item) for item in value]
            return value

        search = tmp_path / "search.json"
        assert main(["lemma6", "--output", str(search)]) == 0
        reversed_search = tmp_path / "reversed.json"
        reversed_search.write_text(json.dumps(keys_reversed(json.loads(search.read_bytes()))))
        for certificate in (search, reversed_search):
            out = tmp_path / f"full-from-{certificate.stem}.json"
            argv = ["verify-n8", "--certificate", str(certificate), "--output", str(out)]
            assert main(argv) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == FULL_SHA256

    def test_round_trip(self, search_certificate, search_doc):
        rebuilt = search_certificate_from_document(search_doc)
        assert serialize_certificate(rebuilt) == serialize_certificate(search_certificate)

    def test_invalid_document_not_rebuilt(self, search_doc):
        bad = copied(search_doc)
        bad["instance"]["rank"] = 5
        with pytest.raises(VerificationError, match="document.instance.rank is 5, expected 3"):
            search_certificate_from_document(bad)


class TestValidation:
    def test_emitted_documents_are_clean(self, search_doc, contradiction_doc):
        assert validate_search_document(search_doc) == []
        assert validate_contradiction_document(contradiction_doc) == []

    def test_dispatch_on_flavor(self, search_doc, contradiction_doc):
        assert validate_certificate_document(search_doc) == []
        assert validate_certificate_document(contradiction_doc) == []

    def test_unknown_version_rejected(self, search_doc):
        bad = json.loads(json.dumps(search_doc))
        bad["version"] = 2
        assert validate_search_document(bad)

    def test_corrupt_survivor_tope_detected(self, search_doc):
        bad = json.loads(json.dumps(search_doc))
        pool = bad["instance"]["pool_topes"]
        present = set(bad["survivors"][0]["topes"])
        replacement = next(t for t in pool if t not in present)
        bad["survivors"][0]["topes"][15] = replacement
        assert validate_search_document(bad)

    def test_junk_tope_detected(self, search_doc):
        bad = json.loads(json.dumps(search_doc))
        bad["survivors"][3]["topes"][0] = "000000"
        assert validate_search_document(bad)

    def test_wrong_count_detected(self, search_doc):
        bad = json.loads(json.dumps(search_doc))
        bad["counts"]["combinations_checked"] = 184755
        assert any("combinations_checked" in p for p in validate_search_document(bad))

    def test_dropped_survivor_detected(self, search_doc):
        bad = json.loads(json.dumps(search_doc))
        bad["survivors"] = bad["survivors"][:19]
        assert validate_search_document(bad)

    def test_survivors_out_of_order_or_repeated(self, search_doc):
        s = search_doc["survivors"]
        swapped = copied(search_doc)
        swapped["survivors"] = copied([s[1], s[0], *s[2:]])
        problems = validate_search_document(swapped)
        assert problems[0] == "document.survivors[0].topes[7] is '++-++-', expected '++-+++'"
        assert problems[9] == "document.survivors[1].topes[7] is '++-+++', expected '++-++-'"
        assert len(problems) == 18
        assert all(p.startswith(("document.survivors[0].", "document.survivors[1].")) for p in problems)
        repeated = copied(search_doc)
        repeated["survivors"] = copied([s[0], *s])
        repeated["counts"]["survivor_count"] = 21
        problems = validate_search_document(repeated)
        assert problems[:3] == [
            "document.counts.survivor_count is 21, expected 20",
            "document.survivors has 21 entries, expected 20",
            "document.survivors[1].topes[7] is '++-+++', expected '++-++-'",
        ]
        assert all(p.startswith("document.survivors[") for p in problems[2:])

    @pytest.mark.parametrize("kept", [1, 19])
    @pytest.mark.parametrize("flavor", ["search", "full"])
    def test_cut_survivor_list_rejected(self, search_doc, contradiction_doc, flavor, kept):
        # a document cut to its first survivors, with survivor_count to match
        bad = copied(contradiction_doc if flavor == "full" else search_doc)
        bad["survivors"] = bad["survivors"][:kept]
        bad["counts"]["survivor_count"] = kept
        validate = validate_contradiction_document if flavor == "full" else validate_search_document
        assert validate(bad) == [
            f"document.counts.survivor_count is {kept}, expected 20",
            f"document.survivors has {kept} entries, expected 20",
        ]
        assert validate_certificate_document(bad) == validate(bad)

    def test_pipeline_document_named_by_search_validation(self, contradiction_doc):
        problem = "document is a full-pipeline (all) certificate, not a lemma6 search certificate"
        assert validate_search_document(contradiction_doc) == [problem]
        with pytest.raises(VerificationError, match=r"^document is a full-pipeline \(all\) certificate"):
            search_certificate_from_document(contradiction_doc)

    def test_search_document_named_by_full_validation(self, search_doc):
        assert validate_contradiction_document(search_doc) == [
            "document is a lemma6 search certificate, not a full-pipeline (all) certificate"
        ]

    @pytest.mark.parametrize("restrictions", [5, "x", {"a": 1}, None], ids=["int", "str", "object", "null"])
    @pytest.mark.parametrize("flavor", ["search", "full"])
    def test_restrictions_not_a_list_name_no_flavor(self, search_doc, contradiction_doc, flavor, restrictions):
        # only a list in restrictions states a flavor; any other value is a diff problem
        bad = copied(contradiction_doc if flavor == "full" else search_doc)
        bad["restrictions"] = restrictions
        with pytest.raises(VerificationError) as raised:
            search_certificate_from_document(bad)
        for problems in (
            validate_search_document(bad),
            str(raised.value).splitlines(),
            validate_contradiction_document(bad),
            validate_certificate_document(bad),
        ):
            assert "document.restrictions is not an array" in problems
            assert not any(p.startswith("document is ") for p in problems)

    def test_tampered_circuit_detected(self, contradiction_doc):
        bad = json.loads(json.dumps(contradiction_doc))
        bad["conclusion"]["circuit_b"] = bad["conclusion"]["circuit_a"]
        assert validate_contradiction_document(bad)

    def test_tampered_verdict_detected(self, contradiction_doc):
        bad = json.loads(json.dumps(contradiction_doc))
        bad["conclusion"]["verdict"] = "factorizable"
        assert any("verdict" in p for p in validate_contradiction_document(bad))

    @pytest.mark.parametrize("name", EDITS)
    def test_edit_rejected_at_its_path(self, search_doc, contradiction_doc, name):
        flavor, path, value = EDITS[name]
        bad = copied(contradiction_doc if flavor == "full" else search_doc)
        *parents, last = path
        target = bad
        for key in parents:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
        validate = validate_contradiction_document if flavor == "full" else validate_search_document
        where = "document" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        assert any(p.startswith(where) for p in validate(bad))

    def test_survivor_rebuild_failure_named(self, monkeypatch, search_doc, contradiction_doc):
        # a failure of the regenerated search is one problem, not a traceback
        forced = list(combinations(range(1, 7), 4)).index(CIRCUIT_SUPPORTS[1])

        def several_on_forced_support(tope_set):
            table = list(circuit_table(tope_set))
            table[forced] = None  # as if several patterns were avoided there
            return tuple(table)

        monkeypatch.setattr(omcert.search, "circuit_table", several_on_forced_support)
        for problems in (
            validate_search_document(search_doc),
            validate_contradiction_document(contradiction_doc),
        ):
            assert len(problems) == 1
            assert problems[0].startswith("the search failed: picks (")
            assert problems[0].endswith("carry no unique circuit on (1, 2, 5, 6)")

    def test_search_conclusions_checked(self, monkeypatch, search_doc):
        # the document equals the regenerated one, but the forced pair the
        # search must carry is another: a lemma6 document then fails
        monkeypatch.setattr(omcert.search, "FORCED_CIRCUITS", ("+-+-00", "+-00+-"))
        assert validate_search_document(search_doc) == [
            "search conclusions do not hold: survivor 0: circuit on (1, 2, 5, 6) is +-00-+, expected +-00+-"
        ]

    def test_validation_builds_each_survivor_entry_once(self, monkeypatch, contradiction_doc):
        built = []

        def counted(record):
            built.append(record)
            return survivor_entry(record)

        survivor_entry = omcert.certificate._survivor_entry
        monkeypatch.setattr(omcert.certificate, "_survivor_entry", counted)
        assert validate_contradiction_document(contradiction_doc) == []
        assert len(built) == len(contradiction_doc["survivors"]) == 20

    def test_clean_validation_formats_no_path(self, monkeypatch, contradiction_doc):
        calls = []

        def counted(key):
            calls.append(key)
            return path_key(key)

        path_key = omcert.certificate._path_key
        monkeypatch.setattr(omcert.certificate, "_path_key", counted)
        assert validate_certificate_document(contradiction_doc) == []
        assert calls == []
        bad = copied(contradiction_doc)
        bad["conclusion"]["premise_strong_map"]["method"] = "vibes"
        assert validate_certificate_document(bad) == [
            "document.conclusion.premise_strong_map.method is 'vibes', expected 'tope-inclusion'"
        ]
        assert calls == ["conclusion", "premise_strong_map", "method"]

    @given(key=st.text(st.sampled_from("aZ09_-. \n٣é") | st.characters(), max_size=6))
    @example(key="")
    @example(key="_")
    @example(key="K\u212a")  # a letter outside ASCII
    def test_plain_key_matches_the_pattern(self, key):
        assert omcert.certificate._plain_key(key) is bool(PLAIN_KEY.fullmatch(key))

    @pytest.mark.parametrize("field", SEARCH_INSTANCE_FIELDS)
    def test_search_instance_metadata_checked(self, search_doc, field):
        bad = copied(search_doc)
        bad["instance"][field] = altered(bad["instance"][field])
        problems = validate_search_document(bad)
        assert any(p.startswith(f"document.instance.{field} is") for p in problems)

    @pytest.mark.parametrize("field", SEARCH_INSTANCE_FIELDS)
    def test_reduction_instance_metadata_checked(self, contradiction_doc, field):
        bad = copied(contradiction_doc)
        reduction = bad["instance"]["reduction"]
        reduction[field] = altered(reduction[field])
        problems = validate_contradiction_document(bad)
        assert any(p.startswith(f"document.instance.reduction.{field} is") for p in problems)

    @pytest.mark.parametrize("field", PIPELINE_INSTANCE_FIELDS)
    def test_pipeline_instance_metadata_checked(self, contradiction_doc, field):
        bad = copied(contradiction_doc)
        bad["instance"][field] = altered(bad["instance"][field])
        problems = validate_contradiction_document(bad)
        assert any(p.startswith(f"document.instance.{field} is") for p in problems)


class TestShape:
    @pytest.mark.parametrize("doc", [[], "text", None, {"version": 1}])
    def test_malformed_documents_reported(self, doc):
        for validate in (
            validate_search_document,
            validate_contradiction_document,
            validate_certificate_document,
        ):
            assert validate(doc)

    def test_missing_key_named(self, search_doc):
        bad = copied(search_doc)
        del bad["instance"]["pool_topes"]
        assert validate_search_document(bad) == ["document.instance.pool_topes is missing"]

    def test_missing_scalar_reported(self, search_doc):
        bad = copied(search_doc)
        del bad["counts"]["survivor_count"]
        assert validate_search_document(bad) == ["document.counts.survivor_count is missing"]

    @pytest.mark.parametrize("value", ["184756", 184756.0, True])
    def test_wrong_json_type_reported(self, search_doc, value):
        bad = copied(search_doc)
        bad["counts"]["combinations_checked"] = value
        assert validate_search_document(bad) == [
            f"document.counts.combinations_checked is {value!r}, expected 184756"
        ]

    def test_boolean_version_rejected(self, search_doc):
        bad = copied(search_doc)
        bad["version"] = True
        assert validate_search_document(bad) == ["unsupported version True"]

    def test_survivor_entry_checked(self, search_doc):
        bad = copied(search_doc)
        bad["survivors"][0] = []
        del bad["survivors"][1]["circuits"]
        bad["survivors"][2]["topes"][0] = ["+-----"]
        assert validate_search_document(bad) == [
            "document.survivors[0] is not an object",
            "document.survivors[1].circuits is missing",
            "document.survivors[2].topes[0] is ['+-----'], expected '++++++'",
        ]

    def test_misstated_lifted_circuit_reported(self, contradiction_doc):
        bad = copied(contradiction_doc)
        bad["restrictions"][0]["lifted_circuit"] = "+-?"
        assert validate_contradiction_document(bad) == [
            "document.restrictions[0].lifted_circuit is '+-?', expected '+-00-+00'"
        ]

    def test_unknown_kept_set_reported(self, contradiction_doc):
        bad = copied(contradiction_doc)
        bad["restrictions"][0]["kept"] = "1,x"
        assert validate_contradiction_document(bad) == [
            "document.restrictions[0].kept is '1,x', expected '1,2,3,4,5,6'"
        ]
