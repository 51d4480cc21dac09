"""End-to-end command line coverage: every subcommand, the documented exit
codes, schema validity of every emitted report, and byte determinism."""

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from extlift import catalog, direct_product
from extlift import cli, config
from extlift.cli import main
from extlift.reports import dumps, group_json

SCHEMA = json.loads(
    (resources.files("extlift") / "schema" / "report.schema.json")
    .read_text(encoding="utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    VALIDATOR.validate(report)
    return code, report, captured.err


def test_h2_pinned_example(capsys):
    code, report, _ = run(capsys, "h2", "--group", "catalog:cyclic(2)^2",
                          "--coeffs", "cyclic(2)", "--action", "trivial")
    assert code == 0
    assert report["h2_order"] == 8
    assert report["moduli"] == [2]


def test_h2_rejects_nonabelian_coefficients(capsys):
    code, report, _ = run(capsys, "h2", "--group", "catalog:cyclic(2)",
                          "--coeffs", "dihedral(6)")
    assert code == 2
    assert "error" in report


def test_extend_pinned_obstructed_example(capsys):
    code, report, _ = run(capsys, "extend", "--group", "catalog:heisenberg(3)",
                          "--subgroup", "center", "--theta", "inversion")
    assert code == 1
    assert report["compatible"] is True
    assert report["verdict"] is False
    assert report["witness"] is None
    assert report["obstruction"] is not None
    assert report["obstruction"]["trivial"] is False


def test_verify_pinned_example(capsys):
    code, report, _ = run(capsys, "verify", "--group", "catalog:dihedral(8)",
                          "--subgroup", "center")
    assert code == 0
    assert report["ok"] is True
    assert report["failures"] == []


def test_extend_success_reports_witness(capsys):
    code, report, _ = run(capsys, "extend", "--group", "catalog:dihedral(8)",
                          "--subgroup", "center", "--theta", "id")
    assert code == 0
    assert report["verdict"] is True
    assert report["witness"] is not None
    assert report["obstruction"] is None


def test_lift_failure_reports_obstruction(capsys):
    code, report, _ = run(capsys, "lift", "--group", "catalog:cyclic(9)",
                          "--subgroup", "0,3,6", "--phi", "inversion")
    assert code == 1
    assert report["verdict"] is False
    assert report["obstruction"]["trivial"] is False


def test_lift_identity_succeeds(capsys):
    code, report, _ = run(capsys, "lift", "--group", "catalog:cyclic(9)",
                          "--subgroup", "0,3,6", "--phi", "aut:0")
    assert code == 0
    assert report["witness"] == list(range(9))


def test_lift_pair_on_central_extension(capsys):
    code, report, _ = run(capsys, "lift-pair", "--group", "catalog:dihedral(8)",
                          "--subgroup", "center", "--theta", "id",
                          "--phi", "id")
    assert code == 0
    assert report["mode"] == "pair"
    assert report["verdict"] is True


def test_lift_pair_needs_central_kernel(capsys):
    code, report, _ = run(capsys, "lift-pair", "--group", "catalog:dihedral(6)",
                          "--subgroup", "0,1,2", "--theta", "id", "--phi", "id")
    assert code == 2
    assert report["kind"] == "NotCentral"


def test_analyze_full_report(capsys):
    code, report, _ = run(capsys, "analyze", "--group", "catalog:quaternion(8)",
                          "--subgroup", "center")
    assert code == 0
    assert report["violations"] == []
    assert report["exactness"]["seq_1_1"] is True
    assert report["h2_order"] == 8
    assert len(report["liftable"]) == report["c2_order"] - \
        len([k for k in report["obstructions"] if k.startswith("phi:")])


def test_sylow_lift_flavor_with_index_kill(capsys):
    code, report, _ = run(capsys, "sylow", "--group", "catalog:cyclic(9)",
                          "--subgroup", "0,3,6", "--phi", "perm:0,2,1")
    assert code == 1
    assert report["mode"] == "lift"
    assert report["index_kill"]["class_trivial"] is False
    assert report["index_kill"]["forced_trivial"] is False
    assert report["sylow_reduction"][0]["p"] == 3


def test_sylow_extend_flavor(capsys):
    code, report, _ = run(capsys, "sylow", "--group", "catalog:dihedral(12)",
                          "--subgroup", "0,1,2,3,4,5", "--theta", "id")
    assert code == 0
    assert report["mode"] == "extend"
    assert {e["p"] for e in report["sylow_reduction"]} == {2}
    assert report["verdict"] is True


def test_sylow_needs_exactly_one_flavor(capsys):
    code, report, _ = run(capsys, "sylow", "--group", "catalog:dihedral(8)",
                          "--subgroup", "center")
    assert code == 2
    code, report, _ = run(capsys, "sylow", "--group", "catalog:dihedral(8)",
                          "--subgroup", "center", "--theta", "id",
                          "--phi", "id")
    assert code == 2


def test_sylow_reports_noninvariant_sylows(capsys, tmp_path):
    G = direct_product(catalog("cyclic", 3), catalog("dihedral", 6))
    path = tmp_path / "mixed18.json"
    path.write_text(dumps(group_json(G)), encoding="utf-8")
    from extlift import automorphism_group, center, extension_from
    ext = extension_from(G, center(G))
    phi = next(a for a in automorphism_group(ext.H)
               if not a.is_identity
               and a.compose(a).compose(a).is_identity)
    spec = "perm:" + ",".join(str(v) for v in phi.image)
    code, report, _ = run(capsys, "sylow", "--group", str(path),
                          "--subgroup", "center", "--phi", spec)
    assert code == 2
    assert report["kind"] == "SylowNotInvariant"


def test_split_nontrivial_section_on_nonsplit_extension(capsys):
    code, report, _ = run(capsys, "split", "--group", "catalog:dihedral(8)",
                          "--subgroup", "center")
    assert code == 1
    assert report["extension_splits"] is False
    assert report["c2_star_order"] == 2
    assert report["seq_4_2_splits"] is True
    assert report["sections"]["seq_4_2"]["domain_order"] == 2
    code, report, _ = run(capsys, "split", "--group", "catalog:quaternion(8)",
                          "--subgroup", "center")
    assert code == 1
    assert report["c2_star_order"] == 6


def test_split_no_search_skips_sections(capsys):
    code, report, _ = run(capsys, "split", "--group", "catalog:quaternion(8)",
                          "--subgroup", "center", "--no-search")
    assert code == 1
    assert report["sections"] == {}
    assert report["seq_4_2_splits"] is None


def test_split_on_split_extension(capsys):
    code, report, _ = run(capsys, "split", "--group", "catalog:cyclic(6)",
                          "--subgroup", "0,2,4")
    assert code == 0
    assert report["extension_splits"] is True
    assert report["complement"] is not None
    assert report["seq_4_1_splits"] and report["seq_4_2_splits"]


def test_catalog_listing_and_dump_round_trip(capsys, tmp_path):
    code, report, _ = run(capsys, "catalog")
    assert code == 0
    assert "cyclic" in report["names"]
    assert report["corpus"], "shipped corpus must not be empty"

    code, dumped, _ = run(capsys, "catalog", "--expr", "dihedral(8)")
    assert code == 0
    path = tmp_path / "d8.json"
    path.write_text(dumps(dumped), encoding="utf-8")
    code, report, _ = run(capsys, "extend", "--group", str(path),
                          "--subgroup", "center", "--theta", "id")
    assert code == 0
    assert report["verdict"] is True


def test_output_flag_duplicates_stdout(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["h2", "--group", "catalog:cyclic(4)", "--coeffs", "cyclic(2)",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.read_text(encoding="utf-8") == captured.out


@pytest.mark.parametrize("argv,unwritten_code", [
    (["h2", "--group", "catalog:cyclic(4)", "--coeffs", "cyclic(2)"], 0),
    (["h2", "--group", "catalog:cyclic(300)", "--coeffs", "cyclic(2)",
      "--max-order", "100"], 3)], ids=["report", "error-record"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_an_input_error(capsys, tmp_path, argv,
                                             unwritten_code, target):
    """A report (or error record) that cannot be written to --output gives
    one InputError record naming the path, exit 2 and nothing else on
    stdout, instead of the record and exit unwritten_code."""
    path = str(tmp_path / "missing" / "x.json" if target == "missing-directory"
               else tmp_path)
    assert main(argv) == unwritten_code
    capsys.readouterr()
    code, report, _ = run(capsys, *argv, "--output", path)
    assert code == 2
    assert report["kind"] == "InputError"
    assert report["error"].startswith(f"{path}: cannot write the report (")


@pytest.mark.parametrize("argv", [
    ["verify", "--group", "catalog:dihedral(8)", "--subgroup", "center"],
    ["verify-all"]])
def test_negative_draws_are_refused(capsys, argv):
    """--draws -1 is a usage error (exit 2, nothing on stdout), as a
    non-positive --max-order is, not a run of no draws."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--draws", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_byte_determinism_in_process(capsys):
    args = ["verify", "--group", "catalog:dihedral(8)", "--subgroup", "center",
            "--seed", "7"]
    code1 = main(args)
    first = capsys.readouterr().out
    code2 = main(args)
    second = capsys.readouterr().out
    assert (code1, first) == (code2, second)
    assert first.endswith("\n")


# sha256 of stdout, recorded before cochains and the H-action moved to
# int64 arrays; class keys, representatives and witnesses must not move
STDOUT_SHA256 = [
    (["analyze", "--group", "catalog:dihedral(8)", "--subgroup", "center"],
     "70c3260e6b5eb48e9a58f8490d2b3e64dc729135ebab12ce42891c1d652fe29f"),
    (["verify", "--group", "catalog:dihedral(8)", "--subgroup", "center"],
     "d6a328e1e2db47444a379b4c901312b3b2b23a588c2cacb614e6c47eee2ba129"),
    (["analyze", "--group", "catalog:dihedral(8)", "--subgroup", "0,1,2,3"],
     "b67678000e86bcc51fb27a9cd2b159e461908f9735b56740a8529544d5f971aa"),
    (["verify", "--group", "catalog:dihedral(8)", "--subgroup", "0,1,2,3"],
     "701d7fa81401cd525ff3229238aa192c8dd558099a1845c62abeec12062bb4ee"),
    (["analyze", "--group", "catalog:cyclic(2)*dihedral(8)",
      "--subgroup", "center"],
     "95572bdfbb8818d073e7ba04ffb2961030e808f708d50537de7dedfb74e8336d"),
    (["verify", "--group", "catalog:cyclic(2)*dihedral(8)",
      "--subgroup", "center"],
     "1bcf0a0a1836b4e26c568f2370a978b005b9eb31af1d341814fdb780668d6720"),
    (["extend", "--group", "catalog:heisenberg(3)", "--subgroup", "center",
      "--theta", "id"],
     "1828b67ccbed9d6fc9e19b5059744f245c08dd8a78ce2ccc35e9b9879350c87f"),
    (["lift", "--group", "catalog:heisenberg(3)", "--subgroup", "center",
      "--phi", "inversion"],
     "1ace8d5e66002055349d4a9220f2eb78926c82b0373fac574382db42a668d7b3"),
    (["lift", "--group", "catalog:heisenberg(3)", "--subgroup", "center",
      "--phi", "aut:5"],
     "b969b23af3f1e906715d055e4ee02c757e25a505a0f067fb6f5247a04bccd18e"),
    # coefficients Z4 (the non-central cyclic C4 of dihedral(32)) and Z8:
    # over a non-field the witness can depend on the lattice's sequence of
    # row steps (the Z8 ones change under other Bezout coefficients)
    (["lift", "--group", "catalog:dihedral(32)", "--subgroup", "0,4,8,12",
      "--phi", "aut:1"],
     "b3201b5b438b41b998ec4d8344583b5856a561d7543b2f6dc114223a081d30e7"),
    (["lift", "--group", "catalog:dihedral(32)",
      "--subgroup", "0,2,4,6,8,10,12,14", "--phi", "aut:1"],
     "68cc49a6893b0eb01aeb9b871a7da82a62e414daea8012e325c64aa91aa02efd"),
    (["extend", "--group", "catalog:cyclic(32)",
      "--subgroup", "0,4,8,12,16,20,24,28", "--theta", "aut:2"],
     "be1e048b0c74ec84f2655f54f218c2d497c1f80892f877d7f10ccf8bae423ae2"),
    # split reports: non-split with all three section searches succeeding
    # (sequence 3 over 6 pairs), split with canonical sections on a
    # non-central kernel, and a central k = 2 kernel
    (["split", "--group", "catalog:quaternion(8)", "--subgroup", "center"],
     "dc03a24618f2e9058bcea441972ab8d34b2e91742dd67fe850d1907ebc2f2841"),
    (["split", "--group", "catalog:dihedral(8)", "--subgroup", "0,1,2,3"],
     "bdb22bf6e13ece071635f9fbf3f4b7a9cff74dc2f2014ef73d26da3f533b4bb8"),
    (["split", "--group", "catalog:cyclic(2)*dihedral(8)",
      "--subgroup", "center"],
     "78c6a04f73a0d308c9a568930dcc215e6c70ecd8163822b482133b68443a0260"),
    (["lift-pair", "--group", "catalog:quaternion(8)", "--subgroup", "center",
      "--theta", "id", "--phi", "aut:3"],
     "0a72fc3249edca7cb2cd056d3f23046afeb4074a0ffa1fb8c56d20e94434903f"),
    (["sylow", "--group", "catalog:dihedral(12)",
      "--subgroup", "members:0,1,2,3,4,5", "--phi", "perm:0,1"],
     "c1f8a1fa8c6138aa0a37274f8f3286d2983e11198bd3d56f6814e73c185697d6"),
    (["sylow", "--group", "catalog:heisenberg(3)", "--subgroup", "center",
      "--theta", "inversion"],
     "33c3495739bd1a7e3eba1ad86226f29910a9ff32eee87558e3f8d7c93b72d426"),
    # an incompatible theta ("compatible": false, no obstruction, exit 1)
    # and a section search that exhausts ("seq_4_2_splits": false)
    (["extend", "--group", "dihedral(8)", "--subgroup", "0,2,4,6",
      "--theta", "aut:2"],
     "e38849bcbe57245f3ec95d32a6087e3adcf62fb8a4d31910dc8be32fc5b38d3b"),
    (["split", "--group", "cyclic(16)", "--subgroup", "0,8"],
     "673bbeddd5e2aca79a8524db6838d1548adca7b52ae0a5aceb3fa7e40c78b3b4"),
    # the edge tables: |H| = 1 (N = G) and rank 0 (N = 1)
    (["verify", "--group", "cyclic(6)", "--subgroup", "members:0,1,2,3,4,5"],
     "0ad609b84436cf433b6ce7fd381acb30a52216f0e15f9755299f9578659ffd74"),
    (["split", "--group", "cyclic(6)", "--subgroup", "members:0,1,2,3,4,5"],
     "aa89760824d60cf9bdd0e8056140727c180e7c05974e454b2b3a7945eb250ac9"),
    (["verify", "--group", "dihedral(8)", "--subgroup", "members:0"],
     "4b9d3d89d98da6b0911ae99c102412ac0ee1692662159cdbbb09ebc639d7f629"),
    (["split", "--group", "dihedral(8)", "--subgroup", "members:0"],
     "e4d604b4e1f8ded2c2b79a2f74600f2d90cdea089fda7ed519ac9bcc64d08cd9"),
    # large quotients: B^2 lattices with n = 127^2 and 255^2 slots
    (["h2", "--group", "cyclic(128)", "--coeffs", "cyclic(2)"],
     "07ecd3411b248d29b99060b62a24c9c790e635e9b06bfd914d58e5d6fef2ca99"),
    (["lift", "--group", "cyclic(256)", "--subgroup", "members:0,128",
      "--phi", "inversion"],
     "6ca751db2df10eb626a6a1a1686233c8c54c9f484de2615a41bd1fd6faa9ad43"),
    # 12 000 members of Aut_N(G): the exactness check crosses many blocks
    (["verify", "--group", "heisenberg(5)", "--subgroup", "center"],
     "733de626f7c2dc4cd8caf892bf08c9f92a3a2e23cf79d1419cf3dad6f7efb4c3"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_SHA256,
                         ids=["-".join(a[0::2]) for a, _ in STDOUT_SHA256])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    """Central k = 1, non-central and k = 2 reports, lift/extend witnesses
    and an obstruction on heisenberg(3) over its centre, witnesses over
    Z4 and Z8, split reports, a pair lift, both sylow flavours and an
    exactness check over many blocks."""
    main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_h2_on_a_large_quotient_peaks_under_200_mb():
    """The B^2 lattice of cyclic(128) over Z2 has n = 127^2 slots, 2 GB as a
    square int64 array.  The child prints its own peak RSS (ru_maxrss, KiB
    on Linux), which the test's other subprocesses cannot inflate."""
    code = ("import resource, sys\n"
            "from extlift.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
            " file=sys.stderr)\n"
            "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "h2", "--group", "cyclic(128)",
         "--coeffs", "cyclic(2)"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["h2_order"] == 2
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 200, peak_mb


def test_max_order_flag_trips_bound(capsys):
    code, report, _ = run(capsys, "catalog", "--expr", "cyclic(300)")
    assert code == 0
    code, report, _ = run(capsys, "h2", "--group", "catalog:cyclic(300)",
                          "--coeffs", "cyclic(2)", "--max-order", "100")
    assert code == 3
    assert report["kind"] == "BoundExceeded"


def test_automorphism_search_bound_exits_3(capsys):
    """Aut of elementary_abelian(2,5) has about 10^7 members; aut:1 needs
    all of them, and the search stops at its bound."""
    code, report, _ = run(capsys, "extend", "--group",
                          "catalog:elementary_abelian(2,5)", "--subgroup",
                          "center", "--theta", "aut:1")
    assert code == 3
    assert report == {"error": "automorphism search of elemab2_5 passed "
                               f"{config.AUT_SEARCH_BOUND} partial maps",
                      "kind": "BoundExceeded"}


def test_section_search_bound_exits_3(capsys):
    """The starred quotient set of heisenberg(5) over its centre has 480
    members; the search refuses it before enumerating anything."""
    code, report, _ = run(capsys, "split", "--group", "heisenberg(5)",
                          "--subgroup", "center")
    assert code == 3
    assert report == {"error": "starred set of order 480 exceeds the section "
                               f"search bound {config.DEFAULT_SECTION_BOUND}",
                      "kind": "BoundExceeded"}


@pytest.mark.parametrize("argv", [
    ["catalog", "--expr", "cyclic(6)"],
    ["h2", "--group", "catalog:cyclic(300)", "--coeffs", "cyclic(2)"]])
def test_max_order_flag_is_scoped_to_one_call(capsys, monkeypatch, argv):
    """The flag neither writes the environment nor outlives its call, also
    when the call fails; the environment variable still applies."""
    monkeypatch.delenv("EXTLIFT_MAX_ORDER", raising=False)
    before = dict(os.environ)
    main(argv + ["--max-order", "100"])
    capsys.readouterr()
    assert dict(os.environ) == before
    assert config.max_order() == config.DEFAULT_MAX_ORDER
    monkeypatch.setenv("EXTLIFT_MAX_ORDER", "100")
    code, report, _ = run(capsys, "h2", "--group", "catalog:cyclic(300)",
                          "--coeffs", "cyclic(2)")
    assert code == 3 and report["kind"] == "BoundExceeded"


@pytest.mark.parametrize("exc", [
    AssertionError("recovered witness does not reproduce the cocycle"),
    MemoryError(), RecursionError("maximum recursion depth exceeded"),
    KeyError("unexpected")])
def test_internal_error_exits_4(capsys, monkeypatch, exc):
    def broken(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_h2", broken)
    code, report, _ = run(capsys, "h2", "--group", "cyclic(2)",
                          "--coeffs", "cyclic(2)")
    assert code == 4
    # MemoryError() has no message: the record names subcommand and kind
    assert report == {"error": str(exc) or "h2: MemoryError",
                      "kind": type(exc).__name__}


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output-file"])
def test_failure_while_rendering_exits_4(capsys, monkeypatch, tmp_path, output):
    """The encoder running out of memory on a finished report is an internal
    error: exit 4 and the one error record on stdout, with nothing of the
    report before it, not an exception out of main (exit 1)."""
    calls = []

    def dumps_failing_once(report):
        calls.append(report)
        if len(calls) == 1:
            raise MemoryError()
        return dumps(report)
    monkeypatch.setattr(cli, "dumps", dumps_failing_once)
    argv = ["h2", "--group", "cyclic(4)", "--coeffs", "cyclic(2)"]
    if output:
        argv += ["--output", str(tmp_path / "report.json")]
    code, report, _ = run(capsys, *argv)
    assert code == 4
    assert report == {"error": "h2: MemoryError", "kind": "MemoryError"}
    assert "h2_order" in calls[0]
    if output:
        assert json.loads((tmp_path / "report.json").read_text()) == report


# entries of a group file must be JSON integers; a float such as 0.5 is
# refused, not truncated
BAD_GROUP_FILES = [
    ({"cayley": [["a"]]}, "'cayley' entry 0"),
    ({"cayley": [[0, 1], [1, None]]}, "'cayley' entry 1"),
    ({"cayley": [[0, 1], [1, 0.5]]}, "'cayley' entry 1"),
    ({"cayley": [[True, 1], [1, 0]]}, "'cayley' entry 0"),
    ({"perm_degree": 3, "generators": [["a", 1, 2]]}, "'generators' entry 0"),
    ({"perm_degree": 3, "generators": [1]}, "'generators' entry 0"),
]


@pytest.mark.parametrize("data,field", BAD_GROUP_FILES,
                         ids=[f for _, f in BAD_GROUP_FILES])
def test_group_file_entries_must_be_integers(capsys, tmp_path, data, field):
    """Alone or in a verify-all corpus, the file exits 2 with an InputError
    naming the file and the field."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (["analyze", "--group", str(path), "--subgroup", "center"],
                 ["verify-all", "--corpus", str(tmp_path)]):
        code, report, _ = run(capsys, *argv)
        assert code == 2, argv
        assert report["kind"] == "InputError"
        assert report["error"].startswith(f"{path}: {field} ")


def test_bad_max_order_variable_is_an_input_error(capsys, monkeypatch, tmp_path):
    """Both the catalog and a group file reach config.max_order(); each names
    the variable rather than a catalog parameter or a traceback."""
    path = tmp_path / "d8.json"
    path.write_text(dumps(group_json(catalog("dihedral", 8))), encoding="utf-8")
    monkeypatch.setenv("EXTLIFT_MAX_ORDER", "abc")
    for argv in (["catalog", "--expr", "cyclic(2)"],
                 ["analyze", "--group", str(path), "--subgroup", "center"]):
        code, report, _ = run(capsys, *argv)
        assert code == 2, argv
        assert report == {"error": "EXTLIFT_MAX_ORDER must be a positive "
                                   "integer, got 'abc'", "kind": "InputError"}


def test_input_error_paths(capsys):
    cases = [
        ["extend", "--group", "catalog:nosuch(3)", "--subgroup", "center",
         "--theta", "id"],
        ["extend", "--group", "catalog:cyclic(9)", "--subgroup", "0,1",
         "--theta", "id"],
        ["extend", "--group", "catalog:cyclic(9)", "--subgroup", "sylow:x",
         "--theta", "id"],
        ["extend", "--group", "catalog:cyclic(9)", "--subgroup", "members:",
         "--theta", "id"],
        ["extend", "--group", "catalog:cyclic(9)", "--subgroup", "junk",
         "--theta", "id"],
        ["extend", "--group", "catalog:dihedral(8)", "--subgroup", "center",
         "--theta", "aut:99"],
        ["extend", "--group", "catalog:dihedral(8)", "--subgroup", "center",
         "--theta", "perm:0"],
        ["extend", "--group", "catalog:dihedral(8)", "--subgroup", "center",
         "--theta", "frobenius"],
        ["extend", "--group", "catalog:cyclic(9)", "--subgroup", "0,3,6",
         "--theta", "map:1=0"],
        ["extend", "--group", "/no/such/file.json", "--subgroup", "center",
         "--theta", "id"],
    ]
    for argv in cases:
        code, report, _ = run(capsys, *argv)
        assert code == 2, argv
        assert report["kind"], argv


@pytest.mark.parametrize("argv,token", [
    (["catalog", "--expr", "cyclic(x)"], "x"),
    (["catalog", "--expr", "cyclic()"], ")"),
    (["catalog", "--expr", "cyclic("], "$"),
    (["catalog", "--expr", "cyclic(2)^x"], "x"),
    (["catalog", "--expr", "direct_product(cyclic(2))"], "cyclic"),
    (["lift", "--group", "dihedral(y)", "--subgroup", "center", "--phi", "id"],
     "y"),
], ids=["name-param", "empty-params", "unclosed", "power", "nested-call",
        "group-spec"])
def test_malformed_catalog_integer_is_an_input_error(capsys, argv, token):
    """A parameter or power that is not an integer exits 2 with an
    InputError naming the token, and stdout holds that record alone."""
    code, report, _ = run(capsys, *argv)
    assert code == 2
    assert report == {"error": "expected an integer in catalog expression, "
                               f"got {token!r}", "kind": "InputError"}


def test_map_spec_builds_automorphism(capsys):
    # on the kernel Z3 of the 9 element cyclic extension, 1 -> 2 is inversion
    code, report, _ = run(capsys, "extend", "--group", "catalog:cyclic(9)",
                          "--subgroup", "0,3,6", "--theta", "map:1=2")
    assert code == 1
    assert report["theta"] == [0, 2, 1]


def test_inversion_requires_abelian_group(capsys, tmp_path):
    G = direct_product(catalog("cyclic", 3), catalog("dihedral", 6))
    path = tmp_path / "mixed18.json"
    path.write_text(dumps(group_json(G)), encoding="utf-8")
    code, report, _ = run(capsys, "lift", "--group", str(path),
                          "--subgroup", "center", "--phi", "inversion")
    assert code == 2
    assert "abelian" in report["error"]


def test_verify_all_small_corpus(capsys, tmp_path):
    for name, expr in (("a_z6.json", ("cyclic", 6)),
                       ("b_s3.json", ("dihedral", 6))):
        G = catalog(*expr)
        (tmp_path / name).write_text(dumps(group_json(G)), encoding="utf-8")
    code, report, err = run(capsys, "verify-all", "--corpus", str(tmp_path))
    assert code == 0
    assert report["ok"] is True
    assert report["failed"] == 0
    assert report["pairs"] == len(report["entries"])
    names = [e["group"] for e in report["entries"]]
    assert names == sorted(names, key=lambda n: names.index(n))
    assert "pairs:" in err


def test_verify_all_names_corrupted_file(capsys, tmp_path):
    bad = tmp_path / "zz_bad.json"
    bad.write_text(json.dumps({"name": "bad", "cayley": [[0, 1], [1, 1]]}),
                   encoding="utf-8")
    code, report, _ = run(capsys, "verify-all", "--corpus", str(tmp_path))
    assert code == 2
    assert report["kind"] == "InputError"
    assert str(bad) in report["error"]


def test_verify_all_empty_corpus_passes_trivially(capsys, tmp_path):
    code, report, _ = run(capsys, "verify-all", "--corpus", str(tmp_path))
    assert code == 0
    assert report["pairs"] == 0
    assert report["ok"] is True


def test_verify_all_missing_corpus_dir(capsys, tmp_path):
    code, report, _ = run(capsys, "verify-all", "--corpus",
                          str(tmp_path / "nowhere"))
    assert code == 2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "extlift.cli", "extend", "--group",
         "catalog:heisenberg(3)", "--subgroup", "center",
         "--theta", "inversion"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    VALIDATOR.validate(report)
    assert report["verdict"] is False
