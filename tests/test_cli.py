import gc
import json
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import kmchev.alcove as alcove
import kmchev.cli as cli
import kmchev.cli_selftest as cli_selftest
import kmchev.kring as kring
import kmchev.lspath as lspath
from kmchev.cartan import (GCM, PRESETS as cartan_presets, Realization, realization_from_json_file,
                           realization_from_preset)
from kmchev.cli import main
from kmchev.weyl import WeylGroup

AFF = ["--cartan", "A2~", "--weight", "1,1,0"]
AFFW = AFF + ["--w", "0 1 2 1"]
# A nilHecke row document of 2.5 MB whose longest rows take several pieces.
LONG_ROWS = ["chevalley", "--cartan", "A1~", "--weight", "1,1", "--w", "0 1 0 1 0 1 0 1 0 1 0 1", "--model", "nilhecke"]
HYP = ["--gcm-file", str(Path(__file__).resolve().parents[1] / "bench" / "hyperbolic.json")]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chevalley_json_schema(capsys):
    code, out, err = run(capsys, ["chevalley", *AFFW, "--model", "all"])
    assert code == 0, err
    doc = json.loads(out)
    assert set(doc) == {"cartan", "lambda", "sign", "w", "rows", "truncated"}
    assert doc["lambda"] == {"fund": [1, 1, 0], "delta": 0}
    assert doc["sign"] == 1
    assert doc["w"] == ["0", "1", "2", "1"]
    assert doc["truncated"] is False
    assert len(doc["rows"]) == 4
    for row in doc["rows"]:
        assert set(row) == {"z", "terms"}
        for term in row["terms"]:
            assert set(term) == {"weight", "mult"}
    zs = [tuple(r["z"]) for r in doc["rows"]]
    assert zs == sorted(zs, key=lambda t: (len(t), t))


def test_chevalley_table_contains_frozen_row(capsys):
    code, out, _ = run(capsys, ["chevalley", *AFFW, "--format", "table"])
    assert code == 0
    assert "e[-3,3,2,delta=-3] +e[-1,2,1,delta=-2] +e[1,1,0,delta=-1]" in out


def test_chevalley_antidominant_sign(capsys):
    code, out, _ = run(capsys, ["chevalley", *AFFW, "--sign", "-1", "--format", "table"])
    assert code == 0
    assert "-e[-1,-1,0]" in out  # the bottom row carries coefficient -1


def test_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, ["chevalley", *AFFW, "--out", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_single_model_runs(capsys):
    rows = {}
    for model in ("ls", "alcove", "nilhecke"):
        code, out, _ = run(capsys, ["chevalley", *AFFW, "--model", model])
        assert code == 0
        rows[model] = json.loads(out)["rows"]
    assert rows["ls"] == rows["alcove"] == rows["nilhecke"]


def test_fixed_z_expansion(capsys):
    code, out, _ = run(
        capsys,
        ["chevalley", *AFF, "--z", "1 2", "--max-length", "4", "--model", "alcove"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z"] == ["1", "2"]
    assert doc["truncated"] is True
    byw = {tuple(r["w"]): r["terms"] for r in doc["rows"]}
    target = byw[("0", "1", "2", "1")]
    assert {"weight": {"fund": [1, 1, 0], "delta": -1}, "mult": 1} in target


def test_fixed_z_rejects_other_models(capsys):
    code, _, err = run(
        capsys,
        ["chevalley", *AFF, "--z", "1", "--max-length", "3", "--model", "ls"],
    )
    assert code == 2
    assert "alcove" in err


def test_crystal_counts(capsys):
    for argv, n in [
        (["crystal", *AFFW], 9),
        (["crystal", *AFFW, "--realization", "alcove"], 9),
        (["crystal", "--cartan", "A2", "--weight", "2,1", "--w", "1 2 1"], 15),
        (["crystal", "--cartan", "A2", "--weight", "2,1", "--w", "e"], 1),
    ]:
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == n and len(doc["elements"]) == n


def test_crystal_realizations_agree_on_weights(capsys):
    _, ls_out, _ = run(capsys, ["crystal", *AFFW])
    _, alc_out, _ = run(capsys, ["crystal", *AFFW, "--realization", "alcove"])
    ls_w = sorted(json.dumps(p["weight"], sort_keys=True) for p in json.loads(ls_out)["elements"])
    alc_w = sorted(json.dumps(p["weight"], sort_keys=True) for p in json.loads(alc_out)["elements"])
    assert ls_w == alc_w


@pytest.mark.parametrize("argv", [["--w", "0 1 2 1"], ["--opposite", "--z", "1", "--max-length", "3"]],
                         ids=["w", "opposite"])
def test_each_crystal_realization_runs_in_its_own_group(capsys, monkeypatch, argv):
    """The alcove walk and the LS closure of one crystal are handed two
    groups, so no image, coset or cover memo one fills feeds the other."""
    groups = {}

    def tracked(module, name):
        original = getattr(module, name)

        def call(W, *rest):
            groups[name] = W
            return original(W, *rest)
        monkeypatch.setattr(module, name, call)

    for module, name in ((alcove, "enumerate_tree_antidominant"), (alcove, "enumerate_z_adapted"),
                         (lspath, "demazure_crystal"), (lspath, "opposite_demazure_ls")):
        tracked(module, name)
    code, out, err = run(capsys, ["crystal", *AFF, *argv])
    assert code == 0, err
    assert len(groups) == 2 and len(set(map(id, groups.values()))) == 2, groups


def test_opposite_crystal_truncation(capsys):
    code, out, _ = run(
        capsys,
        ["crystal", *AFF, "--opposite", "--z", "1", "--max-length", "4"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["truncated"] is True
    assert doc["count"] == 57 and len(doc["elements"]) == 57


@pytest.mark.parametrize("argv, truncated", [
    (["--cartan", "A1~", "--weight", "0,0", "--z", "e", "--max-length", "3"], False),  # {straight path} is whole
    (["--cartan", "A2", "--weight", "1,1", "--z", "e", "--max-length", "1"], True),
], ids=["A1~-lam-0", "A2-lam-11"])
def test_the_opposite_crystal_is_truncated_only_when_the_fan_is(capsys, argv, truncated):
    code, out, err = run(capsys, ["crystal", *argv, "--opposite"])
    assert code == 0, err
    assert json.loads(out)["truncated"] is truncated


def test_dot_outputs(capsys):
    code, out, _ = run(capsys, ["chevalley", *AFFW, "--model", "alcove", "--format", "dot"])
    assert code == 0
    assert "(2|1,2,2)/3" in out and out.count("->") == 7
    code, out, _ = run(capsys, ["crystal", *AFFW, "--format", "dot"])
    assert code == 0
    assert out.count("->") == 8 and 'label="0"' in out
    code, _, err = run(capsys, ["chevalley", *AFFW, "--model", "ls", "--format", "dot"])
    assert code == 2


def test_dot_labels_escape_quotes_and_backslashes(tmp_path, capsys):
    """A node name may hold '"' and '\\': each DOT label is a quoted string
    with both escaped, and unescaped it is an element's repr, an LS path's
    text, a hyperplane label's text or a node name."""
    gcm = tmp_path / "quotes.json"
    gcm.write_text(json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": ['a"', "b\\"]}))
    R = realization_from_json_file(str(gcm))
    W = WeylGroup(R)
    elements = {repr(W.from_word(word)) for word in [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]}
    paths = {lspath.format_path(p) for p in lspath.demazure_crystal(W, (1, 0), W.from_word((0,)))}
    hyperplanes = re.compile(r"\(\d+\|\d+(,\d+)*\)(/\d+)?").fullmatch
    label = re.compile(r' \[label="((?:[^"\\]|\\.)*)"\];').fullmatch
    for argv, is_node, is_edge in [
        (["chevalley", "--weight", "1,1", "--w", 'a" b\\', "--model", "alcove"], elements.__contains__, hyperplanes),
        (["crystal", "--weight", "1,1", "--w", 'a" b\\', "--realization", "alcove"], elements.__contains__, hyperplanes),
        (["crystal", "--weight", "1,0", "--w", 'a"'], paths.__contains__, set(R.node_names).__contains__),
    ]:
        code, out, err = run(capsys, [*argv, "--gcm-file", str(gcm), "--format", "dot"])
        assert code == 0, err
        lines = out.splitlines()[2:-1]
        assert len(lines) > 2 and any("->" in line for line in lines)
        for line in lines:
            match = label(line[line.index(" ["):])
            assert match, line
            text = re.sub(r"\\(.)", r"\1", match[1])
            assert (is_edge if "->" in line else is_node)(text), line


def test_gcm_file_input(tmp_path, capsys):
    gcm = tmp_path / "g2.json"
    gcm.write_text(json.dumps({"matrix": [[2, -1], [-3, 2]], "nodes": ["1", "2"]}))
    code, out, _ = run(
        capsys,
        ["chevalley", "--gcm-file", str(gcm), "--weight", "1,0", "--w", "1 2"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["cartan"]["matrix"] == [[2, -1], [-3, 2]]
    assert len(doc["rows"]) >= 2


def test_error_exits(capsys):
    """Each refused input exits 2 with one error: line that names what is wrong."""
    cases = [
        (["chevalley", "--weight", "1,1", "--w", "e"], "Cartan matrix"),
        (["chevalley", "--cartan", "A2", "--weight", "1,-1", "--w", "e"], "not dominant"),
        (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "7"], "unknown node name '7'"),
        (["chevalley", "--cartan", "A2", "--weight", "1,1"], "needs --w"),  # neither --w nor --z
        (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--sign", "2"], "--sign must be"),
        (["chevalley", "--cartan", "A2", "--weight", "oops", "--w", "e"], "weight coordinate 'oops'"),
        (["chevalley", "--cartan", "A2", "--weight", "1/0,1", "--w", "e"], "weight coordinate '1/0'"),
        (["chevalley", *AFF[:2], "--weight", "1,1,0,delta=x", "--w", "e"], "weight coordinate 'delta=x'"),
        (["chevalley", "--cartan", "A2", "--w", "e"], "a --weight is required"),
        (["crystal", "--cartan", "A2", "--w", "e"], "a --weight is required"),
        (["crystal", "--cartan", "A2", "--weight", "1,1", "--opposite", "--z", "1"], "--max-length"),
        (["crystal", "--cartan", "A2", "--weight", "1,1"], "needs --w"),
        # options the chosen mode would otherwise drop
        (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "1 2", "--z", "1", "--max-length", "2",
          "--model", "alcove"], "drop --w"),
        (["crystal", "--cartan", "A2", "--weight", "1,1", "--w", "1 2", "--opposite", "--z", "1",
          "--max-length", "2"], "drop --w"),
        (["crystal", "--cartan", "A2", "--weight", "1,1", "--w", "1 2", "--z", "1"], "--opposite only"),
        (["crystal", "--cartan", "A2", "--weight", "1,1", "--w", "1 2", "--max-length", "1"], "--opposite only"),
        # the refused scenario filter lists the scenarios
        (["selftest", "--scenario", "nosuch"], "crystal-mass"),
    ]
    for argv, needle in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and err.count("\n") == 1 and needle in err, (argv, err)
        assert out == "", argv


@pytest.mark.parametrize("argv, needle", [
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--format", "xml"], "argument --format"),
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--z", "1", "--max-length", "x", "--model", "alcove"],
     "argument --max-length"),
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--model", "foo"], "argument --model"),
    (["crystal", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--realization", "foo"], "argument --realization"),
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "required: command"),  # no subcommand
    (["nosuch"], "invalid choice: 'nosuch'"),
], ids=["format", "max-length", "model", "realization", "unknown-option", "no-command", "unknown-command"])
def test_argparse_refusals_are_one_error_line(capsys, argv, needle):
    """An option value that argparse itself refuses exits 2 with one error:
    line, like every other refused input, and prints no usage block."""
    code, out, err = run(capsys, argv)
    assert code == 2, argv
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err, err
    assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--format=xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'table', 'dot')"),
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--z", "1", "--max", "3", "--model", "alcove"],
     "unrecognized arguments: --max 3"),  # no abbreviation of --max-length
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w"], "argument --w: expected one argument"),
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "--model", "ls"],
     "argument --w: expected one argument"),
    (["crystal", "--cartan", "A2", "--weight", "1,1", "--w", "e", "--opposite=1"],
     "argument --opposite: ignored explicit argument '1'"),
    (["selftest", "--w", "e"], "unrecognized arguments: --w e"),
], ids=["format=xml", "abbreviation", "no-value", "option-as-value", "flag-value", "other-command"])
def test_option_table_refusals(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_option_forms_give_the_same_bytes(capsys):
    """--name=value is --name value, and of a repeated option the last wins."""
    base = ["chevalley", "--weight", "1,1", "--w", "1 2", "--sign", "-1"]
    outs = [run(capsys, [*base, *extra]) for extra in (
        ["--cartan", "A2", "--format", "table"],
        ["--cartan=A2", "--format=table"],
        ["--cartan", "B2", "--format", "json", "--cartan=A2", "--format", "table"],
    )]
    assert outs[0][0] == 0 and outs[0][1].startswith("[L^-(1,1)]")
    assert outs[1] == outs[2] == outs[0]


@pytest.mark.parametrize("command", ["chevalley", "crystal", "selftest"])
def test_command_help_lists_every_option(capsys, command):
    code, out, err = run(capsys, [command, "--help"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: kmchev {command}")
    for name, (kind, default, _) in cli.OPTIONS[command].items():
        assert f"\n  {name}" in out, name
        if type(kind) is tuple:
            assert "{" + ",".join(kind) + "}" in out and f"(default: {default})" in out
    assert run(capsys, [command, "-h", "--bogus"]) == (0, out, "")  # help comes before the refusal


def test_top_level_help_lists_every_command(capsys):
    code, out, err = run(capsys, ["-h"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: kmchev")
    assert all(f"\n  {command} " in out for command in cli.OPTIONS)


def test_a_z_longer_than_the_bound_gives_no_rows_and_no_elements(capsys):
    """Fixed-z rows and the opposite crystal over z = s1 s2 (length 2) within
    lengths <= 1: nothing lies within the bound, and the run is truncated."""
    base = ["--cartan", "A2", "--weight", "1,1", "--z", "1 2", "--max-length", "1"]
    code, out, err = run(capsys, ["chevalley", *base, "--model", "alcove"])
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["rows"], doc["truncated"]) == ([], True)
    code, out, err = run(capsys, ["chevalley", *base, "--model", "alcove", "--format", "table"])
    assert code == 0, err
    assert out == "[L^+(1,1)] * [O_s1*s2], lengths <= 1  (truncated)\n"
    for realization in ("ls", "alcove"):
        code, out, err = run(capsys, ["crystal", *base, "--opposite", "--realization", realization])
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["count"], doc["elements"], doc["truncated"]) == (0, [], True)


def test_non_integral_weights_exit_2(capsys):
    cases = [
        ["chevalley", "--cartan", "A2", "--weight", "1/2,1", "--w", "e"],
        ["chevalley", *AFF[:2], "--weight", "1,1,0,delta=1/2", "--w", "e"],
        ["crystal", "--cartan", "A2", "--weight", "1.5,0", "--w", "1"],
        ["chevalley", "--cartan", "A2", "--weight", "2/2,1", "--w", "e"],  # no longer read as 1
        ["chevalley", "--cartan", "A2", "--weight", "1/0,1", "--w", "e"],
        # an empty field is a coordinate int() does not read, not an absent one
        ["chevalley", "--cartan", "A2", "--weight", "1,,1", "--w", "1"],
        ["chevalley", "--cartan", "A2", "--weight", "1,1,", "--w", "1"],
        ["chevalley", "--cartan", "A2", "--weight", ",1,1", "--w", "1"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and "integral" in err, argv
        assert out == "", argv


def test_repeated_delta_in_corank_1_exits_2(capsys):
    """Corank one takes one delta= entry; a second is refused, not read over the first."""
    for argv in (["chevalley", "--w", "0 1"], ["crystal", "--w", "0 1"]):
        code, out, err = run(capsys, [*argv, *AFF[:2], "--weight", "1,1,0,delta=2,delta=3"])
        assert code == 2, argv
        assert err.startswith("error:") and "delta=" in err, argv
        assert out == "", argv
    code, out, err = run(capsys, ["chevalley", *AFF[:2], "--weight", "1,1,0,delta=3", "--w", "e",
                                  "--format", "table"])
    assert code == 0, err
    assert out.startswith("[L^+(1,1,0,delta=3)]")


def test_sign_aliases_give_the_same_bytes(capsys):
    """--sign - is --sign -1 and --sign + is --sign +1, on every output byte."""
    outs = {}
    for sign in ("-1", "-", "+1", "+"):
        code, outs[sign], err = run(capsys, ["chevalley", *AFFW, "--sign", sign])
        assert code == 0, err
    assert outs["-"] == outs["-1"] and outs["+"] == outs["+1"] != outs["-1"]


def test_non_integral_weight_exits_2_without_asserts():
    """The boundary check must not rest on an assert that python -O strips."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kmchev", "chevalley", "--cartan", "A2",
         "--weight", "1/2,1", "--w", "1 2", "--model", "ls"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


# The rank-3 cycle matrix, a free product of three Z/2: the 20 covers of
# z = (0 1 2)^5 0 1 carry 29,860,704 alcove labels for lam = (1,1,0).
RANK3_CYCLE = '{"matrix": [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]}'
HUGE_A1 = ["--cartan", "A1", "--weight", "99999999999999999999", "--w", "1"]
BOUNDS_CASES = [
    ({}, ["crystal", "--cartan", "A2", "--weight", "1,1", "--opposite", "--z", "1", "--max-length", "-1"],
     "--max-length"),
    ({}, ["chevalley", "--cartan", "A2", "--weight", "1,1", "--z", "1", "--max-length", "-3", "--model", "alcove"],
     "--max-length"),
    ({"KMCHEV_CAP": "abc"}, ["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "1 2"], "KMCHEV_CAP"),
    ({"KMCHEV_CAP": "0"}, ["chevalley", "--cartan", "A1~", "--weight", "1,1", "--z", "1", "--max-length", "3",
                           "--model", "alcove"], "adapted sequences of the alcove walk above s1: 1 exceeds cap 0"),
    ({}, ["chevalley", "--gcm-file", "RANK3_CYCLE", "--weight", "1,1,0", "--z", " ".join("012" * 5 + "01"),
          "--max-length", "18", "--model", "alcove"], "29860704 exceeds cap 100000"),
    ({"KMCHEV_CAP": "40"}, ["chevalley", "--cartan", "A2~", "--weight", "1,1,0", "--z", "e", "--max-length", "8",
                            "--model", "alcove"], "labels of the alcove walk above e: 44 exceeds cap 40"),
    ({"KMCHEV_CAP": "2000"}, ["chevalley", "--cartan", "A1~", "--weight", "1,0", "--z", "e", "--max-length", "20",
                              "--model", "alcove"],
     "adapted sequences of the alcove walk above e: 2001 exceeds cap 2000"),
    ({"KMCHEV_CAP": "5000"}, ["chevalley", "--cartan", "A1~", "--weight", "1,1", "--z", "e", "--max-length", "1200",
                              "--model", "alcove"], "labels of the alcove walk above e: 5112 exceeds cap 5000"),
    ({}, ["chevalley", "--gcm-file", "RANK3_CYCLE", "--weight", "1,0,0", "--z", "e", "--max-length", "17",
          "--model", "alcove"], "labels of the alcove walk above e: 134769 exceeds cap 100000"),
    *(({}, ["chevalley", *HUGE_A1, "--model", model], "99999999999999999999 exceeds cap 100000")
      for model in ("ls", "alcove", "nilhecke", "all")),
    *(({}, ["crystal", *HUGE_A1, "--realization", realization], "99999999999999999999 exceeds cap 100000")
      for realization in ("ls", "alcove")),
]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_bad_bounds_exit_2(flags, tmp_path):
    """A negative --max-length, a KMCHEV_CAP that is not an int >= 0, and
    work that outgrows the cap each exit 2 with one error: line naming what
    overflowed, also under python -O: the adapted sequences an alcove walk
    holds (cap 0 on a fixed-z fan; the A1~ fan over e, two elements a
    length, whose sequences once ran on for 16 s at cap 2000), the labels it
    builds in all (a cap of 40 on an A2~ fan; the A1~ fan to length 1200,
    which once ran until memory ran out; the rank-3 fan over e to length 17,
    which once held 500 MB first; the 17-letter rank-3 start, refused before
    any of its labels is built), and a 20-digit A1 weight, whose one letter
    asks every model and both crystal realizations for 10^20 terms."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    gcm = tmp_path / "rank3_cycle.json"
    gcm.write_text(RANK3_CYCLE)
    for extra_env, argv, needle in BOUNDS_CASES:
        argv = [str(gcm) if arg == "RANK3_CYCLE" else arg for arg in argv]
        env = {k: v for k, v in os.environ.items() if k != "KMCHEV_CAP"}
        env.update(extra_env, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, *flags, "-m", "kmchev", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error:") and needle in proc.stderr, (argv, proc.stderr)
        assert proc.stderr.count("\n") == 1, (argv, proc.stderr)
        assert proc.stdout == "", argv


@pytest.mark.parametrize("argv, lines_read", [
    (["crystal", "--cartan", "A1~", "--weight", "1,1", "--w", "1 0 1 0 1 0 1", "--realization", "alcove"], 1),
    (["chevalley", "--cartan", "A1", "--weight", "1", "--w", "e"], 0),
    (["--help"], 0),
    (["chevalley", "--help"], 0),
    (LONG_ROWS, 1),
])
def test_a_closed_stdout_exits_2_without_a_traceback(argv, lines_read):
    """A reader that stops early gets one error: line and exit 2.  The 400 KB
    crystal document and the 2.5 MB row document break inside emit's writes,
    after one line is read, with pieces still to come; the 400 byte row and
    the --help text would fit the pipe whole, so their pipe is closed unread
    and they break at the flush in main.  The child's stdout
    is block-buffered, as in a shell without PYTHONUNBUFFERED."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-m", "kmchev", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("argv, code, needle", [
    (["chevalley", "--cartan", "A1", "--weight", "1", "--w", "e"], 2, "error: stdout was closed"),
    (["chevalley", "--cartan", "B9", "--weight", "1", "--w", "e"], 2, "error: unknown preset"),
    (["--help"], 0, "usage: kmchev"),  # the help goes to stderr when there is no stdout
    (["chevalley", "--help"], 0, "usage: kmchev chevalley"),
])
def test_a_process_started_without_stdout(argv, code, needle):
    """With file descriptor 1 closed at start, sys.stdout is None: an output
    is refused with one error: line instead of being dropped, and other runs
    are unchanged, with no traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m kmchev "$@" >&-', sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(needle) and "Traceback" not in proc.stderr, proc.stderr


def test_gcm_file_errors_exit_2(tmp_path, capsys):
    bodies = {
        "bad_json": "{not json",
        "no_matrix": json.dumps({"nodes": ["1", "2"]}),
        "not_a_gcm": json.dumps({"matrix": [[2, 1], [1, 2]]}),
        "not_an_object": json.dumps([[2, -1], [-1, 2]]),
        "entries": json.dumps({"matrix": [["a", -1], [-1, 2]]}),
        # non-integer entries, once truncated by int() and run as A2 or B2
        "fractional": json.dumps({"matrix": [[2, -1.5], [-1, 2]]}),
        "float": json.dumps({"matrix": [[2.0, -1], [-1, 2]]}),
        "bool": json.dumps({"matrix": [[2, True], [-1, 2]]}),
        "symmetrizer": json.dumps({"matrix": [[2, -1], [-2, 2]], "symmetrizer": [2, 1.5]}),
        "asymmetric": json.dumps({"matrix": [[2, -1], [-2, 2]], "symmetrizer": [1, 1]}),
        # node names a word could not spell, or could spell two ways
        "duplicate_nodes": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": ["a", "a"]}),
        "empty_node": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": ["a", ""]}),
        "space_node": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": ["a b", "c"]}),
        "identity_node": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": ["e", "f"]}),
        # shapes once read as made-up node names, or refused in Python's words
        "nodes_string": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": "ab"}),
        "nodes_object": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": {"a": 1, "b": 2}}),
        "nodes_not_strings": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": [None, True]}),
        "matrix_number": json.dumps({"matrix": 7}),
        "symmetrizer_number": json.dumps({"matrix": [[2, -1], [-1, 2]], "symmetrizer": 5}),
        "nodes_null": json.dumps({"matrix": [[2, -1], [-1, 2]], "nodes": None}),
        # misspelt keys, once dropped without a word
        "node": json.dumps({"matrix": [[2, -1], [-1, 2]], "node": ["a", "b"]}),
        "symmetriser": json.dumps({"matrix": [[2, -1], [-2, 2]], "symmetriser": [1, 1]}),
        # once run as a rank-0 realization (with --weight ""), and JSON that json.loads recurses on
        "empty_matrix": json.dumps({"matrix": []}),
        "deep": "[" * 100_000,
    }
    needles = {  # the error names the key
        "no_matrix": "missing key 'matrix'",
        "nodes_string": "nodes must be an array",
        "nodes_object": "nodes must be an array",
        "nodes_not_strings": "nodes must be an array",
        "matrix_number": "matrix must be an array",
        "symmetrizer_number": "symmetrizer must be an array",
        "asymmetric": "symmetrizer does not symmetrize the matrix",
        "nodes_null": "nodes must be an array",
        "node": "unknown key 'node'",
        "symmetriser": "unknown key 'symmetriser'",
        "empty_matrix": "matrix must be an array of one or more arrays",
        "deep": "nested deeper",
    }
    paths = [str(tmp_path / "missing.json")]
    for name, body in bodies.items():
        path = tmp_path / f"{name}.json"
        path.write_text(body)
        paths.append(str(path))
    for path in paths:
        weight = "" if Path(path).stem == "empty_matrix" else "1,1"
        for command in ("chevalley", "crystal"):
            code, out, err = run(capsys, [command, "--gcm-file", path, "--weight", weight, "--w", "e"])
            assert (code, out) == (2, ""), (path, command)
            assert err.startswith("error:") and err.count("\n") == 1, path
            assert needles.get(Path(path).stem, "") in err, err


@pytest.mark.parametrize("matrix, given, printed", [
    ([[2, 0], [0, 2]], [1, 2], [1, 1]),  # each block of a disconnected matrix takes its own factor
    ([[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -3], [0, 0, -1, 2]], [6, 3, 1, 3], [2, 1, 2, 6]),
    ([[2, -1], [-2, 2]], [4, 2], [2, 1]),
])
def test_a_given_symmetrizer_is_any_that_symmetrizes(tmp_path, capsys, matrix, given, printed):
    """A given symmetrizer is accepted when its entries are positive ints
    with d_i a_ij = d_j a_ji, and the document prints the one computed."""
    path = tmp_path / "gcm.json"
    path.write_text(json.dumps({"matrix": matrix, "symmetrizer": given}))
    code, out, err = run(capsys, ["chevalley", "--gcm-file", str(path), "--weight", ",".join("1" * len(matrix)),
                                  "--w", "0 1"])
    assert code == 0, err
    assert json.loads(out)["cartan"] == {"matrix": matrix, "symmetrizer": printed}


GCM_TEXTS = {
    "spaced": ' \n\t{"matrix": [[2, -1], [-1, 2]], "nodes": ["a", "b"]}\r\n ',
    "trailing_garbage": '{"matrix": [[2, -1], [-1, 2]]} x',
    "bom": '\ufeff{"matrix": [[2, -1], [-1, 2]]}',
    "constants": '{"matrix": [[2, NaN], [-Infinity, 2]]}',
    "empty": "",
    "whitespace": " \n\t\r ",
    "bad_json": "{not json",
    "array": "[[2, -1], [-1, 2]]",
    "duplicate_keys": '{"matrix": [[2, -1], [-1, 2]], "matrix": [[2, -2], [-2, 2]]}',
}


@pytest.mark.parametrize("name", GCM_TEXTS)
def test_the_gcm_file_reader_reads_as_json_loads(tmp_path, capsys, monkeypatch, name):
    """The --gcm-file reader gives the Realization, or the error: line, that
    the same file gave when json.loads read it."""
    from kmchev import cartan

    path = tmp_path / f"{name}.json"
    path.write_text(GCM_TEXTS[name], encoding="utf-8")
    argv = ["chevalley", "--gcm-file", str(path), "--weight", "1,0", "--w", "e"]

    def outcome():
        try:
            R = cartan.realization_from_json_file(str(path))
        except ValueError:
            R = None
        return (R.gcm, R.node_names) if R else None, run(capsys, argv)

    got = outcome()
    monkeypatch.setattr(cartan, "_json_value", json.loads)
    assert got == outcome()
    assert (got[0] is None) == (got[1][0] == 2)


def test_unknown_preset_exits_2(capsys):
    code, out, err = run(capsys, ["chevalley", "--cartan", "B9", "--weight", "1,1", "--w", "e"])
    assert code == 2
    assert err.startswith("error:") and "B9" in err
    assert out == ""


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run(capsys, ["chevalley", *AFFW, "--out", str(target)])
    assert code == 2
    assert err.startswith("error:") and "--out" in err
    assert out == ""


def test_identity_word_forms(capsys):
    for text in ("e", " "):
        code, out, _ = run(
            capsys, ["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", text]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["w"] == []
        assert doc["rows"] == [
            {"z": [], "terms": [{"weight": {"fund": [1, 1]}, "mult": 1}]}
        ]


def test_selftest_all_green(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    names = [s["name"] for s in doc["scenarios"]]
    assert "finite-triangles" in names and "negative-control" in names
    assert all(s["ok"] for s in doc["scenarios"])


def test_selftest_filters(capsys):
    code, out, _ = run(capsys, ["selftest", "--scenario", "crystal-mass"])
    assert code == 0
    doc = json.loads(out)
    assert [s["name"] for s in doc["scenarios"]] == ["crystal-mass"]
    code, out, _ = run(capsys, ["selftest", "--scenario", ""])
    assert code == 0
    assert json.loads(out)["scenarios"] == []


def test_selftest_catches_an_injected_fault(capsys, monkeypatch):
    """Corrupting the hyperplane comparator must trip the cross-checks."""
    less = alcove.lex_less
    monkeypatch.setattr(alcove, "lex_less", lambda a, b: less(b, a))
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    doc = json.loads(out)
    assert doc["all_ok"] is False
    bad = {s["name"] for s in doc["scenarios"] if not s["ok"]}
    assert "finite-triangles" in bad


def _flip_a_coefficient_of_the_longest_row(original):
    def flipped(W, lam, w, sign):
        rows = original(W, lam, w, sign)
        poly = rows[w]
        mu = min(poly)
        rows[w] = {**poly, mu: -poly[mu]}
        return rows
    return flipped


def _raise(*args):
    raise RuntimeError("injected")


# (scenario, module, name, the fault made from the original, a part of the detail)
SELFTEST_FAULTS = {
    "flipped-sign": ("cancellation-free", kring, "chevalley_recurrence", _flip_a_coefficient_of_the_longest_row,
                     "not of sign"),
    "fold-off-by-one": ("tree-fold", alcove, "wt_fold", lambda f: lambda *a: tuple(c + 1 for c in f(*a)),
                        "is not its walk's weight"),
    "T_i-gives-zero": ("crystal-mass", kring, "apply_Ti", lambda f: lambda *a: {}, "crystal weights are not the"),
    "T_i-raises": ("crystal-mass", kring, "apply_Ti", lambda f: _raise, "exception: RuntimeError"),
    "blind-sign-check": ("cancellation-free", cli_selftest, "_sign_fault", lambda f: lambda *a: None,
                         "went undetected"),
}


@pytest.mark.parametrize("fault", list(SELFTEST_FAULTS))
def test_selftest_reports_the_fault_of_each_scenario(capsys, monkeypatch, fault):
    """A fault in what a scenario checks (a nilHecke row with one coefficient
    flipped, a fold off by one, a T_i that gives zero or raises) or in its
    own negative control (a sign check that sees nothing) fails that
    scenario, with a detail that says how."""
    scenario, module, name, make, detail = SELFTEST_FAULTS[fault]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    code, out, _ = run(capsys, ["selftest", "--scenario", scenario])
    assert code == 1
    doc = json.loads(out)
    [result] = doc["scenarios"]
    assert doc["all_ok"] is False and result["name"] == scenario and not result["ok"]
    assert detail in result["detail"], result["detail"]


def test_out_writes_file_and_stdout_stays_quiet(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, ["chevalley", *AFFW, "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rows"]


def out_and_stdout(tmp_path, args) -> bytes:
    """The bytes of a run written once with --out and once to stdout,
    checked equal, with the one trailing newline."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = [sys.executable, "-m", "kmchev", *args]
    target = tmp_path / "rows.json"
    to_file = subprocess.run([*argv, "--out", str(target)], capture_output=True, env=env, timeout=60)
    to_stdout = subprocess.run(argv, capture_output=True, env=env, timeout=60)
    assert to_file.returncode == to_stdout.returncode == 0
    assert to_file.stdout == b""
    text = target.read_bytes()
    assert text == to_stdout.stdout
    assert text.endswith(b"}\n") and not text.endswith(b"\n\n")
    return text


def test_out_and_stdout_give_the_same_bytes(tmp_path):
    """A multi-row nilHecke JSON document, written once with --out and once
    to stdout, byte for byte."""
    text = out_and_stdout(tmp_path, ["chevalley", "--cartan", "A1~", "--weight", "1,1", "--w", "1 0 1 0",
                                     "--model", "nilhecke", "--sign", "-1"])
    assert len(json.loads(text)["rows"]) > 1


def test_out_and_stdout_give_the_same_bytes_in_many_pieces(tmp_path):
    """The same for a document whose longest rows take several pieces."""
    rows = json.loads(out_and_stdout(tmp_path, LONG_ROWS))["rows"]
    assert max(len(row["terms"]) for row in rows) > cli.ITEMS_PER_PIECE


COR2 = {"matrix": [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]}


def test_json_refuses_corank_2_before_any_model_runs(tmp_path, capsys, monkeypatch):
    gcm = tmp_path / "corank2.json"
    gcm.write_text(json.dumps(COR2))
    def ran(*args, **kwargs):
        raise AssertionError("a model ran before the corank check")
    monkeypatch.setattr(cli, "_rows_for_model", ran)
    for module, name in [(lspath, "demazure_crystal"), (lspath, "opposite_demazure_ls"),
                         (alcove, "enumerate_tree_antidominant"), (alcove, "enumerate_z_adapted")]:
        monkeypatch.setattr(module, name, ran)
    base = ["--gcm-file", str(gcm), "--weight", "1,1,1,1"]
    for argv in [
        ["chevalley", *base, "--w", "0 1 0 1 2 3 2 3"],
        ["chevalley", *base, "--z", "1", "--max-length", "3", "--model", "alcove"],
        ["crystal", *base, "--w", "0 1 2"],
        ["crystal", *base, "--opposite", "--z", "1", "--max-length", "3"],
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and "corank" in err, argv
        assert out == "", argv


@pytest.mark.parametrize("argv, message", [
    (["chevalley", "--gcm-file", str(Path(__file__).resolve().parents[1] / "bench" / "hyperbolic.json"),
      "--weight", "1,1", "--w", "0 1 0 1 0", "--model", "ls", "--format", "dot"],
     "--format dot for chevalley requires the alcove model"),
    (["chevalley", *AFFW, "--model", "nilhecke", "--format", "dot"],
     "--format dot for chevalley requires the alcove model"),
    (["crystal", *AFF, "--opposite", "--z", "1", "--max-length", "3", "--realization", "alcove", "--format", "dot"],
     "dot output for the alcove realization covers --w crystals only"),
], ids=["chevalley-ls-dot", "chevalley-nilhecke-dot", "crystal-opposite-alcove-dot"])
def test_a_refused_option_is_refused_before_any_model_runs(capsys, monkeypatch, argv, message):
    def ran(*args, **kwargs):
        raise AssertionError("a model ran before the option was refused")
    monkeypatch.setattr(cli, "_rows_for_model", ran)
    for module, name in [(lspath, "opposite_demazure_ls"), (alcove, "enumerate_z_adapted")]:
        monkeypatch.setattr(module, name, ran)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, needle", [
    (["crystal", *AFFW], "labels of the alcove walk below s0*s1*s2*s1: 7 exceeds cap 5"),
    (["crystal", *AFF, "--opposite", "--z", "1", "--max-length", "5"],
     "labels of the alcove walk above s1: 10 exceeds cap 5"),
], ids=["w", "opposite"])
def test_crystal_runs_the_capped_walk_before_the_ls_closure(capsys, monkeypatch, argv, needle):
    """No cap bounds the LS closure, so a walk that outgrows the cap refuses
    the run before any LS path is made."""
    def ran(*args, **kwargs):
        raise AssertionError("the LS closure ran before the alcove walk")
    monkeypatch.setenv("KMCHEV_CAP", "5")
    for name in ("demazure_crystal", "opposite_demazure_ls"):
        monkeypatch.setattr(lspath, name, ran)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("error:") and needle in err and err.count("\n") == 1, err


@pytest.mark.parametrize("sign", ["+1", "-1"])
def test_chevalley_runs_the_capped_walk_before_the_ls_closure(capsys, monkeypatch, sign):
    """--model all runs the nilHecke reference, then the alcove walk, then
    the LS closure, which no cap bounds: a walk that outgrows the cap
    refuses the run before any LS path is made."""
    def ran(*args, **kwargs):
        raise AssertionError("the LS closure ran before the alcove walk")
    monkeypatch.setenv("KMCHEV_CAP", "5")
    monkeypatch.setattr(lspath, "demazure_crystal", ran)
    code, out, err = run(capsys, ["chevalley", *AFFW, "--sign", sign, "--model", "all"])
    assert (code, out) == (2, ""), err
    assert err == "error: labels of the alcove walk below s0*s1*s2*s1: 7 exceeds cap 5 (raise KMCHEV_CAP to override)\n"


class _Row(dict):
    """A row that a weakref can point to."""


def test_all_models_hold_the_reference_and_drop_each_other_model_once_compared(capsys, monkeypatch):
    """--model all makes the nilHecke rows first and holds them; the alcove
    rows are dropped once compared with them, so when the LS model starts
    every nilHecke row is alive and no alcove row is."""
    original = cli._rows_for_model
    made: dict = {}
    alive_when_ls_starts = []

    def watched(model, *args):
        if model == "ls":
            alive_when_ls_starts.append({name: sum(ref() is not None for ref in refs) for name, refs in made.items()})
        rows = {z: _Row(poly) for z, poly in original(model, *args).items()}
        made[model] = [weakref.ref(row) for row in rows.values()]
        return rows

    monkeypatch.setattr(cli, "_rows_for_model", watched)
    code, _, err = run(capsys, ["chevalley", *AFFW, "--model", "all"])
    assert code == 0, err
    assert made["alcove"] and alive_when_ls_starts == [{"nilhecke": len(made["nilhecke"]), "alcove": 0}]


def test_a_row_only_one_model_has_is_reported_against_empty_rows(capsys):
    """A fault gives the alcove rows one more z, above w, at which no other
    model has a row: both reports list that z, with no terms (JSON) or 0
    (table) for the other two models."""
    original = cli._rows_for_model

    def extra(model, R, lam, sign, word):
        rows = original(model, R, lam, sign, word)
        if model == "alcove":
            rows[WeylGroup(R).from_word(word + (0,))] = {lam: 1}
        return rows

    with mock.patch.object(cli, "_rows_for_model", extra):
        code, out, err = run(capsys, ["chevalley", *AFFW])
        assert code == 1, err
        assert json.loads(out)["disagreements"] == [{"z": ["0", "1", "2", "1", "0"], "models": {
            "alcove": [{"weight": {"fund": [1, 1, 0], "delta": 0}, "mult": 1}], "ls": [], "nilhecke": []}}]
        code, out, err = run(capsys, ["chevalley", *AFFW, "--format", "table"])
    assert code == 1, err
    assert out.splitlines() == ["models disagree", "  [O_s0*s1*s2*s1*s0]", "    alcove : e[1,1,0]",
                                "    ls : 0", "    nilhecke : 0"]


def test_the_dot_of_one_model_walks_the_tree_once(capsys, monkeypatch):
    """--model alcove --format dot draws the tree without making the rows,
    which nothing would read; --model all --format dot still cross-checks."""
    original = cli._rows_for_model
    ran = []
    monkeypatch.setattr(cli, "_rows_for_model", lambda model, *args: ran.append(model) or original(model, *args))
    outs = []
    for model, models_run in (("alcove", []), ("all", ["nilhecke", "alcove", "ls"])):
        code, out, err = run(capsys, ["chevalley", *AFFW, "--model", model, "--format", "dot"])
        assert (code, ran) == (0, models_run), err
        outs.append(out)
    assert outs[0] == outs[1]


def test_table_tells_corank_2_coordinates_apart(tmp_path, capsys):
    gcm = tmp_path / "corank2.json"
    gcm.write_text(json.dumps(COR2))
    outs = []
    for word in ("0", "2"):
        code, out, err = run(capsys, ["chevalley", "--gcm-file", str(gcm), "--weight", "1,1,1,1",
                                      "--w", word, "--format", "table"])
        assert code == 0, err
        assert out.startswith("[L^+(1,1,1,1,delta=0,delta=0)]")
        outs.append(out)
    # s0 and s2 move different extra coordinates
    assert "[O_e] : e[-1,3,1,1,delta=-1,delta=0]" in outs[0]
    assert "[O_e] : e[1,1,-1,3,delta=0,delta=-1]" in outs[1]


def test_table_reports_a_disagreement_in_corank_2(tmp_path, capsys, monkeypatch):
    """A failed cross-check under --format table prints the report as table
    lines and exits 1, in any corank (JSON output is refused in corank 2)."""
    gcm = tmp_path / "corank2.json"
    gcm.write_text(json.dumps(COR2))
    original = cli._rows_for_model

    def doubled(model, *args):
        rows = original(model, *args)
        return {z: {mu: 2 * c for mu, c in p.items()} for z, p in rows.items()} if model == "alcove" else rows

    monkeypatch.setattr(cli, "_rows_for_model", doubled)
    code, out, err = run(capsys, ["chevalley", "--gcm-file", str(gcm), "--weight", "1,1,1,1",
                                  "--w", "0 2", "--format", "table"])
    assert code == 1, err
    lines = out.splitlines()
    assert lines[0] == "models disagree"
    assert lines[1:5] == ["  [O_e]", "    alcove : 2*e[-1,3,-1,3,delta=-1,delta=-1]",
                          "    ls : e[-1,3,-1,3,delta=-1,delta=-1]",
                          "    nilhecke : e[-1,3,-1,3,delta=-1,delta=-1]"]
    assert [ln for ln in lines if not ln.startswith("    ")] == ["models disagree", "  [O_e]", "  [O_s0]",
                                                                 "  [O_s2]", "  [O_s0*s2]"]

    original_alcove = alcove.enumerate_tree_antidominant
    monkeypatch.setattr(alcove, "enumerate_tree_antidominant", lambda W, lam, w: original_alcove(W, lam, w)[:-1])
    code, out, err = run(capsys, ["crystal", "--gcm-file", str(gcm), "--weight", "1,1,1,1",
                                  "--w", "0 2", "--format", "table"])
    assert code == 1, err
    lines = out.splitlines()
    assert lines[0] == "realizations disagree"
    assert lines[1].startswith("  ls : 4 elements, e[") and lines[2].startswith("  alcove : 3 elements, e[")


def test_realizations_with_equal_counts_and_one_other_weight_disagree(capsys, monkeypatch):
    """One alcove element's weight shifted by alpha_0 keeps the counts equal;
    crystal compares the weights too and exits 1 with its report, as table
    and as JSON."""
    original = alcove.enumerate_tree_antidominant

    def shifted(W, lam, w):
        pairs = original(W, lam, w)
        seq, wt = pairs[-1]
        return pairs[:-1] + [(seq, tuple(x + a for x, a in zip(wt, W.R.alpha[0])))]

    monkeypatch.setattr(alcove, "enumerate_tree_antidominant", shifted)
    code, out, err = run(capsys, ["crystal", *AFFW, "--format", "table"])
    assert code == 1, err
    lines = out.splitlines()
    assert lines[0] == "realizations disagree"
    assert lines[1].startswith("  ls : 9 elements, e[") and lines[2].startswith("  alcove : 9 elements, e[")
    assert lines[1].split(", ", 1)[1] != lines[2].split(", ", 1)[1]

    code, out, err = run(capsys, ["crystal", *AFFW])
    assert code == 1, err
    report = json.loads(out)
    assert report["error"] == "realizations disagree"
    assert report["ls_count"] == report["alcove_count"] == 9
    ls, alc = (Counter(json.dumps(mu) for mu in report[key]) for key in ("ls_weights", "alcove_weights"))
    assert sum(ls.values()) == sum(alc.values()) == 9
    assert sum((ls - alc).values()) == sum((alc - ls).values()) == 1


def test_weight_takes_back_a_printed_corank_2_weight(tmp_path, capsys):
    gcm = tmp_path / "corank2.json"
    gcm.write_text(json.dumps(COR2))
    base = ["chevalley", "--gcm-file", str(gcm), "--w", "0", "--format", "table"]
    code, out, err = run(capsys, [*base, "--weight", "1,1,1,1,delta=0,delta=-3"])
    assert code == 0, err
    assert out.startswith("[L^+(1,1,1,1,delta=0,delta=-3)]")
    for bad in ("1,1,1,1,delta=0", "1,1,1,1,delta=0,delta=1,delta=2"):
        code, out, err = run(capsys, [*base, "--weight", bad])
        assert code == 2, bad
        assert err.startswith("error:") and "delta=" in err, bad
        assert out == "", bad


@pytest.mark.parametrize("model, module, name", [("nilhecke", "kmchev.kring", "chevalley_recurrence"),
                                                 ("alcove", "kmchev.alcove", "chevalley_alcove")])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, model, module, name):
    """Exit 1 means the models disagree, so a MemoryError (a huge weight under
    a low ulimit -v) exits 2 with one error: line instead of a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(f"{module}.{name}", exhausted)
    code, out, err = run(capsys, ["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "1 2 1", "--model", model])
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


NON_REDUCED = [(["--cartan", "A2", "--weight", "1,1"], "1 1 2", "2"),
               ([*HYP, "--weight", "0,1"], "0 1 0 1 1 1 0", "0 1 0 1 0")]


@pytest.mark.parametrize("base, typed, reduced", NON_REDUCED, ids=["A2", "hyp2"])
@pytest.mark.parametrize("model", ["ls", "alcove", "nilhecke", "all"])
@pytest.mark.parametrize("sign", ["+1", "-1"])
def test_a_non_reduced_word_gives_the_bytes_of_its_reduced_word(capsys, base, typed, reduced, model, sign):
    """A --w with a cancelling pair names the element of its reduced word,
    and every model writes that element's bytes in json and in table: none
    composes the letters as they were typed."""
    for fmt in ("json", "table"):
        outs = []
        for word in (typed, reduced):
            code, out, err = run(capsys, ["chevalley", *base, "--w", word, "--model", model, "--sign", sign,
                                          "--format", fmt])
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1], fmt


MID_STREAM = ["chevalley", *HYP, "--weight", "1,1", "--w", "0 1 0 1 0 1", "--model", "nilhecke"]


def _exhausted_at_the_third_streamed_row(calls: list):
    """kring.hecke_compose, raising MemoryError before the third row of its
    sixth call, which composes the outermost letter of MID_STREAM; the held
    rows of the five letters before it take one call each, each appended
    to `calls`."""
    original = kring.hecke_compose

    def exhausted(*args):
        calls.append(args[1])
        for k, pair in enumerate(original(*args)):
            if k == 2 and len(calls) == 6:
                raise MemoryError
            yield pair

    return exhausted


def test_running_out_of_memory_mid_stream_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    """The rows of the outermost letter are written as they are made, so a
    run can fail after its first byte: at the third such row here.  It exits
    2 with one error: line, removes the --out file it created, and leaves a
    prefix of the document on stdout."""
    argv = MID_STREAM
    code, whole, _ = run(capsys, argv)
    assert code == 0
    calls = []
    monkeypatch.setattr(kring, "hecke_compose", _exhausted_at_the_third_streamed_row(calls))
    target = tmp_path / "rows.json"
    for out in (["--out", str(target)], []):
        calls.clear()
        code, stdout, err = run(capsys, [*argv, *out])
        assert (code, err) == (2, "error: out of memory\n")
        assert len(calls) == 6
        assert whole.startswith(stdout) and len(stdout) < len(whole)
    assert not target.exists()
    assert stdout  # the first rows went out before the third was made


def test_a_real_out_of_memory_run_is_one_error_line():
    """A run that exhausts a 100 MB address space exits 2 with one error:
    line.  The alcove fan over e in A1~ meets two elements per length, and
    a cap far above the default lets its sequences run until memory does;
    all the walk held is freed by reference counting once main leaves its
    handler, which leaves the room to print the line.  Only the child's
    address space is limited."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("RLIMIT_AS is not available on this platform")
    limit = 100 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), KMCHEV_CAP="1000000000")
    proc = subprocess.run([sys.executable, "-m", "kmchev", "chevalley", "--cartan", "A1~", "--weight", "1,0",
                           "--z", "e", "--max-length", "20", "--model", "alcove"],
                          capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


@pytest.fixture
def no_cyclic_collector():
    """The cyclic collector off, with nothing left for it when the test starts."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


NO_CYCLE_RUNS = [
    *(["chevalley", *AFFW, "--model", model, "--sign", sign]
      for model in ("ls", "alcove", "nilhecke", "all") for sign in ("+1", "-1")),
    ["chevalley", *AFFW, "--format", "table"],
    ["chevalley", *AFFW, "--format", "dot"],
    ["chevalley", *AFF, "--z", "1 2", "--max-length", "4", "--model", "alcove"],
    ["crystal", *AFFW],
    ["crystal", *AFFW, "--realization", "alcove"],
    ["crystal", *AFF, "--opposite", "--z", "1", "--max-length", "3"],
    ["selftest"],
]


def test_no_command_leaves_cyclic_garbage(capsys, monkeypatch, no_cyclic_collector):
    """Everything a run builds (Weyl groups, their tables, walks) is freed by
    reference counting: with the cyclic collector off, a collection after
    each command finds nothing, also after a run the cap stops and after a
    run out of memory mid-stream."""
    for argv in NO_CYCLE_RUNS:
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)
        assert gc.collect() == 0, argv
    env, argv = next((env, argv) for env, argv, _ in BOUNDS_CASES if env == {"KMCHEV_CAP": "40"})
    monkeypatch.setenv("KMCHEV_CAP", env["KMCHEV_CAP"])
    assert run(capsys, argv)[0] == 2
    assert gc.collect() == 0, argv
    monkeypatch.delenv("KMCHEV_CAP")
    monkeypatch.setattr(kring, "hecke_compose", _exhausted_at_the_third_streamed_row([]))
    assert run(capsys, MID_STREAM)[::2] == (2, "error: out of memory\n")
    assert gc.collect() == 0, MID_STREAM


def test_each_models_group_is_gone_once_its_rows_are_returned(monkeypatch, no_cyclic_collector):
    """No row key refers back to its group, so a model's WeylGroup and all it
    interned are freed as _rows_for_model returns."""
    groups = []

    def tracked(R):
        W = WeylGroup(R)
        groups.append(weakref.ref(W))
        return W

    R = realization_from_preset("A2~")
    monkeypatch.setattr(cli, "WeylGroup", tracked)
    for model in ("ls", "alcove", "nilhecke"):
        rows = cli._rows_for_model(model, R, R.parse_weight("1,1,0"), 1, (0, 1, 2, 1))
        assert len(rows) == 4 and groups[-1]() is None, model


@pytest.mark.parametrize("matrix,weight,word", [(cartan_presets["A2~"], "1,1,0", (0, 1, 2, 1)),
                                                ([[2, -3], [-3, 2]], "1,1", (0, 1, 0, 1))], ids=["A2~", "hyperbolic"])
@pytest.mark.parametrize("sign", [1, -1])
def test_every_model_makes_its_rows_in_key_order(matrix, weight, word, sign):
    """The CLI writes held rows in the order their model made them."""
    R = Realization(GCM.from_matrix(matrix))
    W, lam = WeylGroup(R), R.parse_weight(weight)
    w = W.from_word(word)
    made = {
        "alcove": alcove.chevalley_alcove(W, lam, w, sign),
        "fixed-z": alcove.fixed_z_rows(W, lam, W.from_word(word[:1]), sign, 4)[0],
        "ls": lspath.chevalley_ls(W, lam, w, sign),
        "nilhecke": kring.chevalley_recurrence(W, lam, w, sign),
    }
    for model, rows in made.items():
        keys = [u.key for u in rows]
        assert len(keys) > 2 and keys == sorted(keys), model

# -- the CLI contract, on drawn command lines -------------------------------------


def one_in(draw, k: int) -> bool:
    return draw(st.integers(0, k - 1)) == 0


@st.composite
def gcm_bodies(draw) -> dict:
    """A --gcm-file body: a rank 0-3 matrix, symmetric or with its
    off-diagonal entries drawn one by one (so at times non-symmetrizable or
    indefinite), at times made ragged or given an entry that is not an int,
    with an optional symmetrizer, optional nodes and at times an unknown key."""
    n = draw(st.integers(0, 3))
    entry = st.sampled_from([0, -1, -1, -2, -3])
    matrix = [[2] * n for _ in range(n)]
    symmetric = draw(st.booleans())
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = draw(entry)
            matrix[j][i] = matrix[i][j] if symmetric else draw(entry)
    if n and one_in(draw, 4):
        row = matrix[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()  # ragged
        else:
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1, -1.5, 2.0, True, "a", None]))
    body = {"matrix": matrix}
    if draw(st.booleans()):
        given = st.lists(st.integers(0, 3), min_size=max(n - 1, 0), max_size=n + 1)
        body["symmetrizer"] = draw(given) if one_in(draw, 4) else [draw(st.integers(1, 2))] * n
    if draw(st.booleans()):
        body["nodes"] = (draw(st.lists(st.sampled_from(["a", "b", "e", "a b", ""]), min_size=n, max_size=n))
                         if one_in(draw, 4) else list(draw(st.permutations("abcd")))[:n])
    if one_in(draw, 8):
        body[draw(st.sampled_from(["node", "symmetriser", "extra"]))] = draw(st.sampled_from([1, ["a", "b"]]))
    return body


# Arguments the option table refuses, whatever precedes them.
REFUSED_ARGS = [["--format", "xml"], ["--model", "bogus"], ["--max-length", "x"], ["--w"],
                ["--opposite=1"], ["--max", "3"], ["--bogus"]]


@st.composite
def command_lines(draw, gcm_file: str, outs: list) -> tuple:
    """(argv, the --gcm-file body or None, whether the option table refuses
    argv) of a chevalley or crystal run: weights with coordinates -1 to 2,
    words of up to 4 letters (at times with an unknown one), --z/--max-length
    up to 3, every --format, at times an --out target drawn from `outs`, and
    one run in eight ending in arguments drawn from REFUSED_ARGS."""
    body = None
    if draw(st.booleans()):
        cartan = draw(st.sampled_from(sorted(cartan_presets)))
        argv = ["--cartan", cartan]
        n = len(cartan_presets[cartan])
        names = list(realization_from_preset(cartan).node_names)
    else:
        body = draw(gcm_bodies())
        argv = ["--gcm-file", gcm_file]
        n = len(body["matrix"])
        names = body.get("nodes") or [str(i) for i in range(n)]
    size = draw(st.integers(0, 4)) if one_in(draw, 8) else n
    argv += ["--weight", ",".join(map(str, draw(st.lists(st.integers(-1, 2), min_size=size, max_size=size))))]
    letters = st.sampled_from(names + ["x"] if one_in(draw, 8) else names or ["x"])
    word = st.lists(letters, max_size=4).map(lambda ws: " ".join(ws) or "e")
    command = draw(st.sampled_from(["chevalley", "crystal"]))
    over_z = one_in(draw, 4)
    if over_z:
        argv += ["--z", draw(word), "--max-length", str(draw(st.integers(-1, 3)))]
    if not over_z or one_in(draw, 8):
        argv += ["--w", draw(word)]
    if command == "chevalley":
        argv += ["--sign", draw(st.sampled_from(["+1", "-1"]))]
        argv += ["--model", draw(st.sampled_from(["alcove"] if over_z else ["all", "ls", "alcove", "nilhecke"]))]
    else:
        argv += ["--realization", draw(st.sampled_from(["ls", "alcove"]))] + (["--opposite"] if over_z else [])
    argv = [command, *argv, "--format", draw(st.sampled_from(["json", "table", "dot"]))]
    if one_in(draw, 4):
        argv += ["--out", draw(st.sampled_from(outs))]
    refused = one_in(draw, 8)
    if refused:
        argv += draw(st.sampled_from(REFUSED_ARGS))
    return argv, body, refused


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_command_line_gives_its_document_or_one_error_line(tmp_path, capsys, monkeypatch, data):
    """The CLI contract: exit 0 with the document (under --format json the
    text json.dumps writes with indent=2), or exit 2 with stdout empty and
    one stderr line "error: ..."; never exit 1 (models disagree) and never a
    traceback.  With --out (a new file, an existing directory, or a file in
    a missing directory) exit 0 leaves stdout empty and the file holding
    the bytes the run writes to stdout without --out, and exit 2 creates
    nothing.  A command line the option table refuses exits 2."""
    monkeypatch.setenv("KMCHEV_CAP", "2000")
    gcm_file = tmp_path / "gcm.json"
    target, missing = tmp_path / "doc.txt", tmp_path / "missing"
    target.unlink(missing_ok=True)  # tmp_path is shared by the examples
    argv, body, refused = data.draw(command_lines(str(gcm_file), [str(target), str(tmp_path),
                                                                  str(missing / "doc.txt")]))
    if body is not None:
        gcm_file.write_text(json.dumps(body))
    code, out, err = run(capsys, argv)
    assert code == 2 or not refused, (argv, code)
    if code == 0:
        assert err == ""
        if "--out" in argv:
            assert out == ""
            out = target.read_text()
            assert run(capsys, argv[:-2]) == (0, out, "")
        if argv[argv.index("--format") + 1] == "json":
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
    else:
        assert code == 2, (out, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        assert not target.exists() and not missing.exists()
