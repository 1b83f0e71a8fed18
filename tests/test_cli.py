"""Command-line interface: document codec, exit codes, and report round-trips."""
from __future__ import annotations

import json
import os
import time

import pytest

from homkit.cli import (
    _SUPPORT_SPAN_CAP,
    DocumentError,
    chain_map_from_doc,
    chain_map_to_doc,
    complex_from_doc,
    complex_to_doc,
    main,
)
from homkit.exactalg import Zmod
from homkit.modules import FpModule
from homkit.complexes import ChainMap, disk, null_homotopy, sphere
from homkit.xclass import (
    ALL,
    DEFAULT_MODULE_SIZE_CAP,
    Eps1Universe,
    UniverseCapError,
    default_complex_universe,
    eps1_universe,
    hard_module_cap,
    module_universe,
    raised_module_cap,
)

R4 = Zmod(4)
Z2 = FpModule(R4, (2,))
Z4 = FpModule(R4, (4,))

SPHERE_DOC = {"ring": {"mod": 4}, "modules": {"0": [2]}, "diff": {}}
DISK_DOC = {"ring": {"mod": 4}, "modules": {"0": [2], "1": [2]}, "diff": {"0": [[1]]}}
BAD_DOC = {"ring": {"mod": 4}, "modules": {"0": [4], "1": [4], "2": [4]},
           "diff": {"0": [[1]], "1": [[1]]}}
# (Z/36)^7 -> (Z/36)^7 with random entries: its homology, read off the
# integer lift, grows the Smith form's entries past their cap
GROWING_SMITH_DOC = {
    "ring": {"mod": 36}, "modules": {"0": [36] * 7, "1": [36] * 7},
    "diff": {"0": [[3, 5, 5, 23, 10, 19, 16], [13, 2, 10, 27, 25, 32, 23],
                   [34, 28, 32, 17, 2, 1, 23], [29, 20, 24, 27, 33, 10, 35],
                   [11, 15, 14, 1, 11, 20, 11], [8, 32, 32, 23, 32, 35, 11],
                   [28, 26, 33, 23, 22, 23, 28]]}}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestCodec:
    def test_round_trip_is_canonical(self):
        c = complex_from_doc(DISK_DOC)
        doc = complex_to_doc(c)
        assert complex_to_doc(complex_from_doc(doc)) == doc
        assert complex_from_doc(doc) == c

    def test_negative_degrees(self):
        doc = {"ring": {"mod": 4}, "modules": {"-1": [4], "0": [4]},
               "diff": {"-1": [[1]]}}
        c = complex_from_doc(doc)
        assert c.support == (-1, 0)
        assert complex_to_doc(c)["modules"]["-1"] == [4]

    def test_integers_ring(self):
        from homkit.exactalg import ZZ
        doc = {"ring": {"integers": True}, "modules": {"0": [2]}, "diff": {}}
        assert complex_from_doc(doc).ring == ZZ

    def test_entries_reduced_on_write(self):
        doc = {"ring": {"mod": 4}, "modules": {"0": [2], "1": [2]}, "diff": {"0": [[3]]}}
        c = complex_from_doc(doc)
        assert complex_to_doc(c)["diff"]["0"] == [[1]]

    def test_chain_map_round_trip(self):
        f = ChainMap.identity(disk(0, Z2))
        doc = chain_map_to_doc(f)
        assert chain_map_from_doc(doc) == f


class TestValidateCommand:
    def test_valid(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "c.json", DISK_DOC)]) == 0

    def test_zero_complex_valid(self, tmp_path):
        doc = {"ring": {"mod": 4}, "modules": {}, "diff": {}}
        assert main(["validate", write(tmp_path, "c.json", doc)]) == 0

    def test_invalid_squared_differential(self, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "c.json", BAD_DOC)]) == 1
        assert "degree 1" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_schema_error(self, tmp_path):
        assert main(["validate", write(tmp_path, "c.json",
                                       {"ring": {"mod": 4}, "modules": 5})]) == 2


class TestCheckCommand:
    def test_exact_on_disk(self, tmp_path, capsys):
        assert main(["check", "exact", write(tmp_path, "c.json", DISK_DOC)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True

    def test_x_injective_counterexample(self, tmp_path, capsys):
        code = main(["check", "x-injective", write(tmp_path, "c.json", SPHERE_DOC),
                     "--class", "all", "--bound", "8"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is False
        assert "counterexample" in report
        # the counterexample complexes re-validate through the document codec
        cx = report["counterexample"]
        inner = complex_from_doc(cx["map"]["source"])
        assert inner is not None

    def test_eps1_perp_on_ring_sphere(self, tmp_path, capsys):
        doc = {"ring": {"mod": 4}, "modules": {"0": [4]}, "diff": {}}
        assert main(["check", "eps1-perp", write(tmp_path, "c.json", doc),
                     "--class", "all"]) == 0

    def test_eps1_perp_above_the_old_search_cap(self, tmp_path, capsys):
        # 2^15 chain maps from the failing shifted member into this sphere:
        # the property fails, and the counterexample is named without a cap
        doc = {"ring": {"mod": 4}, "modules": {"0": [2] * 15}, "diff": {}}
        assert main(["check", "eps1-perp", write(tmp_path, "c.json", doc)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is False
        g = chain_map_from_doc(report["counterexample"]["map"])
        assert g.commutes() and null_homotopy(g) is None

    def test_counterexample_feeds_back_through_the_codec(self, tmp_path, capsys):
        main(["check", "x-injective", write(tmp_path, "c.json", SPHERE_DOC),
              "--class", "all", "--bound", "8"])
        report = json.loads(capsys.readouterr().out)
        # the serialized counterexample parses back into a genuine chain map
        # whose source and target validate as complexes
        cx = report["counterexample"]
        witness = chain_map_from_doc(cx["map"])
        assert witness.commutes()
        assert main(["validate", write(tmp_path, "w.json", cx["map"]["source"])]) == 0
        assert main(["validate", write(tmp_path, "w2.json", cx["map"]["target"])]) == 0

    def test_exit_codes_stable_across_runs(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", SPHERE_DOC)
        codes = {main(["check", "x-injective", path, "--class", "all",
                       "--bound", "8"]) for _ in range(3)}
        capsys.readouterr()
        assert codes == {1}

    def test_homotopic_zero(self, tmp_path, capsys):
        f = ChainMap.identity(disk(0, Z2))
        path = write(tmp_path, "f.json", chain_map_to_doc(f))
        assert main(["check", "homotopic-zero", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True
        g = ChainMap.identity(sphere(0, Z2))
        path2 = write(tmp_path, "g.json", chain_map_to_doc(g))
        assert main(["check", "homotopic-zero", path2]) == 1

    def test_bad_input(self, tmp_path):
        assert main(["check", "exact", str(tmp_path / "missing.json")]) == 2

    def test_exact_refuses_a_smith_form_whose_entries_grow(self, tmp_path, capsys):
        # refused at the seventh pivot stage of one Smith form, where it ran
        # for minutes without the cap
        assert main(["check", "exact", write(tmp_path, "c.json", GROWING_SMITH_DOC)]) == 2
        captured = capsys.readouterr()
        assert "refused at pivot stage 6" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestBuildCommand:
    def test_precover_writes_validated_files(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["build", "precover", write(tmp_path, "c.json", SPHERE_DOC),
                     "--class", "all", "--output", out])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True
        result = json.loads(open(os.path.join(out, "result.json")).read())
        assert main(["validate", write(tmp_path, "r.json", result)]) == 0
        built_map = chain_map_from_doc(
            json.loads(open(os.path.join(out, "map.json")).read()))
        for k in built_map.target.degrees():
            assert built_map.component(k).is_epi()
        log = json.loads(open(os.path.join(out, "build_log.json")).read())
        assert log and log[0]["degree"] == 0

    def test_precover_of_zero(self, tmp_path, capsys):
        doc = {"ring": {"mod": 4}, "modules": {}, "diff": {}}
        out = str(tmp_path / "outz")
        assert main(["build", "precover", write(tmp_path, "c.json", doc),
                     "--class", "all", "--output", out]) == 0

    def test_preenvelope(self, tmp_path, capsys):
        out = str(tmp_path / "oute")
        code = main(["build", "preenvelope", write(tmp_path, "c.json", SPHERE_DOC),
                     "--class", "all", "--output", out])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cokernel_membership"]["0"]["in_class"] is True

    @pytest.mark.parametrize("kind", ["precover", "preenvelope"])
    def test_build_reads_its_universe_bound(self, kind, tmp_path, capsys):
        # Z/3 over Z/9 needs Z/9 in the module universe: bound 8 leaves it
        # out and the module factorization check fails, bound 9 has it
        path = write(tmp_path, "c.json", {"ring": {"mod": 9}, "modules": {"0": [3]}})
        out = str(tmp_path / "outb")
        assert main(["build", kind, path, "--output", out, "--bound", "8"]) == 3
        assert main(["build", kind, path, "--output", out, "--bound", "9"]) == 0
        capsys.readouterr()
        for bound in ("0", "-3"):
            assert main(["build", kind, path, "--output", out, "--bound", bound]) == 2
            assert "size bound must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["precover", "preenvelope", "envelope"])
    def test_a_bad_bound_creates_no_output_directory(self, kind, tmp_path, capsys):
        path = write(tmp_path, "c.json", SPHERE_DOC)
        for bound in ("0", "-3"):
            out = tmp_path / f"o{bound}"
            assert main(["build", kind, path, "--output", str(out), "--bound", bound]) == 2
            assert "size bound must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    def test_envelope(self, tmp_path, capsys):
        out = str(tmp_path / "outv")
        code = main(["build", "envelope", write(tmp_path, "c.json", SPHERE_DOC),
                     "--class", "all", "--output", out])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True and report["essential"] is True

    def test_hypothesis_failure_exit_three(self, tmp_path, capsys):
        out = str(tmp_path / "outf")
        code = main(["build", "precover", write(tmp_path, "c.json", SPHERE_DOC),
                     "--class", "free", "--output", out])
        assert code == 3
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "hypothesis-not-established"


class TestUniverseCommand:
    def test_modules_bound_four(self, capsys):
        assert main(["universe", "modules", "--ring", "4", "--bound", "4"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [tuple(l["factors"]) for l in lines] == [(), (2,), (4,), (2, 2)]

    def test_bound_one(self, capsys):
        assert main(["universe", "modules", "--ring", "4", "--bound", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1

    def test_eps1_free_excludes_nonfree_disk(self, capsys):
        assert main(["universe", "eps1", "--ring", "4", "--bound", "4",
                     "--class", "free"]) == 0
        docs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        disk_doc = complex_to_doc(disk(0, Z2))
        assert disk_doc not in docs
        assert complex_to_doc(disk(0, Z4)) in docs

    def test_listing_deterministic(self, capsys):
        main(["universe", "modules", "--ring", "4", "--bound", "8"])
        first = capsys.readouterr().out
        main(["universe", "modules", "--ring", "4", "--bound", "8"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["check", "x-injective", "{input}", "--class", "bogus"],
    ["check", "x-injective", "{input}", "--class", "pred:("],
    ["check", "x-injective", "{input}", "--class", "ann:x"],
    ["build", "precover", "{input}", "--class", "bogus", "--output", "{out}"],
    ["build", "precover", "{input}", "--class", "pred:(", "--output", "{out}"],
    ["universe", "modules", "--ring", "1"],
    ["universe", "modules", "--ring", "0"],
    ["universe", "modules", "--ring", "4", "--class", "ann:x"],
])
def test_malformed_arguments_exit_two(tmp_path, capsys, argv):
    path = write(tmp_path, "c.json", SPHERE_DOC)
    argv = [a.format(input=path, out=str(tmp_path / "out")) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip()
    assert "Traceback" not in err


@pytest.mark.parametrize("rows", [[[1], [1, 2]], [["a"]], [[1.5]], [[True]]],
                         ids=["ragged", "string", "float", "bool"])
@pytest.mark.parametrize("verb", [
    ["validate", "{input}"],
    ["check", "exact", "{input}"],
    ["check", "homotopic-zero", "{input}"],
    ["build", "precover", "{input}", "--output", "{out}"],
])
def test_malformed_matrix_exits_two(tmp_path, capsys, verb, rows):
    if verb[1] == "homotopic-zero":
        doc = {"source": SPHERE_DOC, "target": SPHERE_DOC, "map": {"0": rows}}
    else:
        doc = {"ring": {"mod": 4}, "modules": {"0": [2], "1": [2, 2]}, "diff": {"0": rows}}
    path = write(tmp_path, "c.json", doc)
    argv = [a.format(input=path, out=str(tmp_path / "out")) for a in verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "integer" in err or "lengths" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("prior,rings", [(None, ("4", "8")), ("100", ("2", "16"))],
                         ids=["unset", "set"])
def test_unsafe_bound_lasts_one_command(monkeypatch, prior, rings):
    if prior is None:
        monkeypatch.delenv("HOMKIT_CAP", raising=False)
    else:
        monkeypatch.setenv("HOMKIT_CAP", prior)
    cap = hard_module_cap()
    assert cap == (DEFAULT_MODULE_SIZE_CAP if prior is None else int(prior))
    # a bound of 128 is over either cap, so only a raised cap lets it through
    # (each ring's universe is built here for the first time)
    first, second = rings
    assert main(["universe", "modules", "--ring", first, "--bound", "128"]) == 2
    assert main(["universe", "modules", "--ring", first, "--bound", "128",
                 "--unsafe-bound"]) == 0
    assert os.environ.get("HOMKIT_CAP") == prior
    assert hard_module_cap() == cap
    assert main(["universe", "modules", "--ring", second, "--bound", "128"]) == 2


@pytest.mark.parametrize("kind", ["modules", "complexes"])
def test_raised_cap_universe_is_not_served_at_the_default_cap(monkeypatch, capsys, kind):
    monkeypatch.delenv("HOMKIT_CAP", raising=False)
    argv = ["universe", kind, "--ring", "4", "--bound", "128"]
    assert [main(argv), main(argv + ["--unsafe-bound"]), main(argv)] == [2, 0, 2]
    assert "Traceback" not in capsys.readouterr().err


def test_module_universe_keyed_on_the_cap_in_force(monkeypatch):
    monkeypatch.delenv("HOMKIT_CAP", raising=False)
    with raised_module_cap(4096):
        assert module_universe(Zmod(4), 128).members
    with pytest.raises(UniverseCapError):
        module_universe(Zmod(4), 128)


def test_eps1_universe_keyed_on_the_cap_in_force(monkeypatch):
    # over Z/67 a base bound of 65 is over the default cap of 64; a universe
    # built under a raised cap used to be handed out again at the default one
    monkeypatch.delenv("HOMKIT_CAP", raising=False)
    with pytest.raises(UniverseCapError):
        eps1_universe(Zmod(67), ALL, base_bound=65).members
    with raised_module_cap(128):
        assert len(eps1_universe(Zmod(67), ALL, base_bound=65).members) == 1
    with pytest.raises(UniverseCapError):
        eps1_universe(Zmod(67), ALL, base_bound=65).members


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize("verb", [
    ["check", "x-injective", "{input}", "--bound", "4"],
    ["build", "precover", "{input}", "--output", "{out}"],
    ["universe", "modules", "--ring", "4", "--bound", "4"],
], ids=lambda verb: " ".join(verb[:2]))
def test_a_cap_that_is_not_a_positive_decimal_exits_two(tmp_path, capsys, monkeypatch,
                                                        verb, value):
    # it used to fall back to the default ("abc") or to refuse every bound
    # as over the cap ("0", "-1")
    monkeypatch.setenv("HOMKIT_CAP", value)
    with pytest.raises(UniverseCapError, match="HOMKIT_CAP"):
        hard_module_cap()
    path = write(tmp_path, "c.json", DISK_DOC)
    argv = [a.format(input=path, out=str(tmp_path / "out")) for a in verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"HOMKIT_CAP={value!r} is not a decimal integer of at least 1" in err
    assert "Traceback" not in err


def test_a_positive_decimal_cap_is_read_and_an_empty_one_is_unset(monkeypatch):
    monkeypatch.setenv("HOMKIT_CAP", "8")
    assert hard_module_cap() == 8
    monkeypatch.setenv("HOMKIT_CAP", "")
    assert hard_module_cap() == DEFAULT_MODULE_SIZE_CAP


@pytest.mark.parametrize("argv", [
    ["check", "eps1-perp", "{input}", "--window", "0"],
    ["check", "eps1-perp", "{input}", "--window", "-1"],
    ["check", "dg-injective", "{input}", "--window", "0"],
    ["universe", "eps1", "--ring", "4", "--window", "-1"],
    ["universe", "eps1", "--ring", "4", "--window", "0"],
    ["universe", "complexes", "--ring", "4", "--window", "0"],
])
def test_empty_window_exits_two(tmp_path, capsys, argv):
    # a window below one degree holds only the zero complex, so a verdict
    # over it would be vacuous
    path = write(tmp_path, "c.json", SPHERE_DOC)
    assert main([a.format(input=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "empty" in captured.err and "Traceback" not in captured.err
    assert '"verdict"' not in captured.out


def test_empty_windows_are_refused_by_the_universes():
    with pytest.raises(UniverseCapError, match="empty"):
        Eps1Universe(R4, ALL, window=(-1, -2))
    with pytest.raises(UniverseCapError, match="empty"):
        default_complex_universe(R4, (0, -1))


@pytest.mark.parametrize("argv", [
    ["check", "eps1-perp", "{input}", "--window", "1"],
    ["check", "dg-injective", "{input}", "--window", "1"],
    ["check", "dg-projective", "{input}", "--window", "1"],
    ["universe", "eps1", "--ring", "4", "--window", "1"],
])
def test_one_degree_exactness_window_exits_two(tmp_path, capsys, argv):
    # an exact complex concentrated in one degree is zero, so the window
    # [-1, -1] holds only the zero complex: eps1-perp on this sphere used
    # to hold there although it fails at the default window
    path = write(tmp_path, "c.json", SPHERE_DOC)
    assert main([a.format(input=path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "one degree" in captured.err and "Traceback" not in captured.err
    assert '"verdict"' not in captured.out
    with pytest.raises(UniverseCapError, match="one degree"):
        Eps1Universe(R4, ALL, window=(2, 2))


@pytest.mark.parametrize("verb,case", [
    ("validate", "not-utf8"),
    ("check", "not-utf8"),
    ("build", "not-utf8"),
    ("build", "output-is-a-file"),
    ("build", "output-unwritable"),
])
def test_unusable_files_exit_two(tmp_path, capsys, verb, case):
    path = write(tmp_path, "c.json", SPHERE_DOC)
    out = tmp_path / "out"
    if case == "not-utf8":
        (tmp_path / "c.json").write_bytes(b'{"ring": {"mod": 4}, "x": "\xff\xfe"}')
    elif case == "output-is-a-file":
        out.write_text("taken")
    else:
        # a directory in place of a result file makes the write fail
        (out / "result.json").mkdir(parents=True)
    argv = {"validate": ["validate", path],
            "check": ["check", "exact", path],
            "build": ["build", "precover", path, "--output", str(out)]}[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip()
    assert "Traceback" not in err


def test_failed_build_verification_exits_two(tmp_path, monkeypatch, capsys):
    # a builder verifies its complex and chain map once, in the checks that
    # raise BuildError; forcing validate_complex to fail there on everything
    # but the input must surface as that error, and as exit 2 without a
    # traceback.  Only the builders' own name is patched: a Complex built
    # with check=True elsewhere (a lifting confirmation's sphere, when the
    # caches are cold) must keep the real check
    import homkit.complexes as complexes
    import homkit.construct as construct
    real = complexes.validate_complex
    y = complex_from_doc(DISK_DOC)

    def validate(c):
        if c == y:
            return real(c)
        return complexes.ComplexVerdict(False, None, "forced failure")

    monkeypatch.setattr(construct, "validate_complex", validate)
    for build in (construct.precover_bounded, construct.preenvelope_bounded):
        with pytest.raises(construct.BuildError, match="is not a complex"):
            build(y, ALL)
    capsys.readouterr()
    for kind in ("precover", "preenvelope"):
        code = main(["build", kind, write(tmp_path, "c.json", DISK_DOC),
                     "--class", "all", "--output", str(tmp_path / kind)])
        err = capsys.readouterr().err
        assert code == 2
        assert "build failed" in err and "Traceback" not in err


@pytest.mark.parametrize("top", [200000, 10 ** 9])
@pytest.mark.parametrize("verb", [["validate"], ["check", "exact"]], ids=" ".join)
def test_wide_support_exits_two_at_once(tmp_path, capsys, verb, top):
    # every check walks each degree between the lowest and the highest
    # component, so a wide gap is refused while the document is read
    doc = {"ring": {"mod": 2}, "modules": {"0": [2], str(top): [2]}}
    path = write(tmp_path, "c.json", doc)
    started = time.perf_counter()
    assert main(verb + [path]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert "span" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_support_span_cap_boundary():
    widest = {"ring": {"mod": 2}, "modules": {"0": [2], str(_SUPPORT_SPAN_CAP - 1): [2]}}
    assert complex_from_doc(widest).support == (0, _SUPPORT_SPAN_CAP - 1)
    widest["modules"][str(_SUPPORT_SPAN_CAP)] = [2]
    with pytest.raises(DocumentError, match="span"):
        complex_from_doc(widest)
    # zero components do not count towards the span
    assert complex_from_doc({"ring": {"mod": 2},
                             "modules": {"0": [2], "1": [2], "100000": []}}).support == (0, 1)


def test_oversize_envelope_search_exits_two_at_once(tmp_path, capsys):
    # the ambient of this complex is (Z/4)^4 in degree 1, whose 1,983
    # submodules take minutes to enumerate, so the search is refused first
    doc = {"ring": {"mod": 4}, "modules": {"1": [4, 4], "2": [4, 4]},
           "diff": {"1": [[2, 2], [2, 3]]}}
    started = time.perf_counter()
    code = main(["build", "envelope", write(tmp_path, "c.json", doc), "--bound", "2",
                 "--output", str(tmp_path / "out")])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    captured = capsys.readouterr()
    assert "envelope search cap" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# one degree named by two keys: "0" and "00", "0" and "+0", or one key twice
DUPLICATE_DEGREE_TEXTS = {
    "00": '{"ring": {"mod": 4}, "modules": {"0": [4], "1": [4]},'
          ' "diff": {"0": [[1]], "00": [[2]]}}',
    "+0": '{"ring": {"mod": 4}, "modules": {"0": [2], "+0": [4], "1": [4]},'
          ' "diff": {"0": [[2]]}}',
    "repeated-key": '{"ring": {"mod": 4}, "modules": {"0": [4], "1": [4]},'
                    ' "diff": {"0": [[1]], "0": [[2]]}}',
}


@pytest.mark.parametrize("case", list(DUPLICATE_DEGREE_TEXTS))
@pytest.mark.parametrize("verb", [
    ["validate", "{input}"],
    ["check", "exact", "{input}"],
    ["check", "homotopic-zero", "{input}"],
    ["build", "precover", "{input}", "--output", "{out}"],
], ids=lambda verb: " ".join(verb[:2]))
def test_one_degree_named_twice_exits_two(tmp_path, capsys, verb, case):
    text = DUPLICATE_DEGREE_TEXTS[case]
    if verb[1] == "homotopic-zero":
        text = f'{{"source": {text}, "target": {text}, "map": {{}}}}'
    path = tmp_path / "c.json"
    path.write_text(text)
    argv = [a.format(input=str(path), out=str(tmp_path / "out")) for a in verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert ("degree 0" if case != "repeated-key" else "'0'") in err
    assert "Traceback" not in err


def test_chain_map_keys_naming_one_degree_are_refused():
    doc = {"source": DISK_DOC, "target": DISK_DOC, "map": {"0": [[1]], "-0": [[1]]}}
    with pytest.raises(DocumentError, match="degree 0"):
        chain_map_from_doc(doc)
    doc["map"] = {"0": [[1]], "1": [[1]]}
    assert chain_map_from_doc(doc) == ChainMap.identity(complex_from_doc(DISK_DOC))


# degree keys that int() reads but that are not ASCII decimal integers
NON_DECIMAL_DEGREE_TEXTS = {
    "underscore-and-spaces": '{"ring": {"mod": 4}, "modules": {"1_0": [4], " 11 ": [4]},'
                             ' "diff": {"1_0": [[1]]}}',
    "spaces": '{"ring": {"mod": 4}, "modules": {"0": [4], " 1": [4]}}',
    "fullwidth": '{"ring": {"mod": 4}, "modules": {"\\uff10": [4]}}',
    "arabic-indic": '{"ring": {"mod": 4}, "modules": {"0": [4]}, "diff": {"\\u0661": []}}',
}


@pytest.mark.parametrize("case", list(NON_DECIMAL_DEGREE_TEXTS))
@pytest.mark.parametrize("verb", [
    ["validate", "{input}"],
    ["check", "exact", "{input}"],
    ["check", "homotopic-zero", "{input}"],
    ["build", "precover", "{input}", "--output", "{out}"],
], ids=lambda verb: " ".join(verb[:2]))
def test_degree_keys_that_are_not_ascii_decimals_exit_two(tmp_path, capsys, verb, case):
    text = NON_DECIMAL_DEGREE_TEXTS[case]
    if verb[1] == "homotopic-zero":
        text = f'{{"source": {text}, "target": {text}, "map": {{}}}}'
    path = tmp_path / "c.json"
    path.write_text(text)
    argv = [a.format(input=str(path), out=str(tmp_path / "out")) for a in verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "is not a decimal integer" in err
    assert "Traceback" not in err


def test_chain_map_keys_that_are_not_ascii_decimals_are_refused():
    for key in ("0_0", " 0", "０"):
        doc = {"source": DISK_DOC, "target": DISK_DOC, "map": {key: [[1]], "1": [[1]]}}
        with pytest.raises(DocumentError, match="not a decimal integer"):
            chain_map_from_doc(doc)


BOOLEAN_DOCS = {
    "false-factor-over-Z": {"ring": {"integers": True}, "modules": {"0": [False]}},
    "true-factor-over-Z4": {"ring": {"mod": 4}, "modules": {"0": [True]}},
    "integers-string": {"ring": {"integers": "no"}, "modules": {"0": [2]}},
    "integers-one": {"ring": {"integers": 1}, "modules": {"0": [2]}},
    "integers-one-with-mod": {"ring": {"integers": 1, "mod": 4}, "modules": {"0": [2]}},
    "integers-null-with-mod": {"ring": {"integers": None, "mod": 4}, "modules": {"0": [2]}},
    "mod-true": {"ring": {"mod": True}, "modules": {"0": []}},
}


@pytest.mark.parametrize("case", list(BOOLEAN_DOCS))
@pytest.mark.parametrize("verb,prefix", [(["validate"], "parse error"),
                                         (["check", "exact"], "bad input")],
                         ids=["validate", "check-exact"])
def test_booleans_are_not_integers(tmp_path, capsys, verb, prefix, case):
    doc = BOOLEAN_DOCS[case]
    with pytest.raises(DocumentError) as info:
        complex_from_doc(doc)
    path = write(tmp_path, "c.json", doc)
    assert main(verb + [path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: {info.value}\n" and captured.out == ""
