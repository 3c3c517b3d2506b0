"""End-to-end tests of the command line front end.

These drive run() with argv lists, never a subprocess, so exit codes and
emitted files are checked directly.  Determinism matters throughout: the
same flags must produce byte-identical data files.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from treesnake import cli
from treesnake.cli import run
from treesnake.exact_enum import conditional_label_law, labelled_atoms
from treesnake.gw_sampler import (
    OffspringDistribution,
    RejectionBudgetExhausted,
    SizeOverflow,
    StepDistribution,
)
from treesnake.plane_tree import MAX_VERTICES, tree_from_line, tree_to_line
from treesnake.quadmap import PlanarQuadrangulation, enumerate_well_labelled
from treesnake.spatial_tree import SpatialTree


ROOT = Path(__file__).resolve().parent.parent


def read_json_stdout(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


GEO = OffspringDistribution.geometric_half()
U3 = StepDistribution.uniform3()


def read_draws(path) -> Counter:
    """Counts of (tree counts, labels) pairs in a `sample` CSV; labels are
    None for the plain-tree measures."""
    draws = Counter()
    for row in csv.DictReader(path.read_text().splitlines()):
        counts = tuple(int(c) for c in row["tree"].split(","))
        labels = row.get("labels")
        draws[counts, labels and tuple(int(v) for v in labels.split(";"))] += 1
    return draws


def normalised(weights) -> dict:
    """Atoms of (key, weight) pairs merged by key and scaled to mass one."""
    law: dict = {}
    for key, w in weights:
        law[key] = law.get(key, Fraction(0)) + w
    total = sum(law.values())
    return {k: w / total for k, w in law.items()}


def atoms(n, x, single_child, keep=lambda s: True, labelled=True) -> dict:
    return normalised(
        ((s.tree.counts, s.labels if labelled else None), w)
        for s, w in labelled_atoms(n, GEO, U3, x, root_single_child=single_child)
        if keep(s)
    )


def positive(s) -> bool:
    return all(v > 0 for v in s.labels[1:])


def never(*_args):
    raise AssertionError("work started before the usage check")


def assert_usage_error(capsys) -> str:
    """The one error line of a usage error, after checking that it is one
    line and that nothing went to stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


# Upper 0.001 quantiles of chi-square, by degrees of freedom.
CHI2_999 = {4: 18.47, 8: 26.12, 17: 40.79, 53: 90.57}


def tv_bound(cells: int, draws: int) -> float:
    """Total variation a correct sampler exceeds with chance about 0.001.

    Cauchy-Schwarz gives 2 TV <= sqrt(X^2 / draws) for Pearson's X^2 over
    the cells, so the chi-square critical value carries over.
    """
    return 0.5 * math.sqrt(CHI2_999[cells - 1] / draws)


class TestVerifySubcommand:
    def test_reroot_identity_passes(self, capsys):
        assert run(["verify", "--identity", "reroot", "--n", "3"]) == 0
        report = read_json_stdout(capsys)
        assert report["identity"] == "reroot"
        assert report["equal"] is True

    def test_closed_identity_with_pm1(self, capsys):
        assert run(["verify", "--identity", "reroot-closed", "--n", "2",
                    "--gamma", "pm1"]) == 0
        assert read_json_stdout(capsys)["equal"] is True

    def test_census(self, capsys):
        assert run(["verify", "--identity", "census", "--n", "3"]) == 0
        report = read_json_stdout(capsys)
        assert [e["well_labelled"] for e in report["entries"]] == [2, 9, 54]

    def test_size_law(self, capsys):
        assert run(["verify", "--identity", "size-law", "--n", "4"]) == 0
        assert read_json_stdout(capsys)["equal"] is True

    def test_quad_battery(self, capsys):
        assert run(["verify", "--identity", "quad", "--n", "2"]) == 0
        report = read_json_stdout(capsys)
        assert report["checked"] == 9
        assert report["failures"] == []

    # sha256 of the stdout of the four verify calls of the exact-n5
    # benchmark, recorded before validate folded its sigma check into the
    # orbit walk and the census counted labellings by a label DP
    @pytest.mark.parametrize("identity, n, digest", [
        ("reroot", 5, "5d5a63e66ec391457b09c3ae827c4d8aa62623a83c5dc310030077c4ba5ec1fc"),
        ("reroot-closed", 5, "9931e46dba1abefaba61f0e3a0a4bd52ef83d0ec0dd7641f7641aa4790695159"),
        ("quad", 5, "3bebfe7792f4e47b8dbf6641d6b4f1bf8a77aa64c56674613c630d81948d314d"),
        ("census", 6, "cfac957ac99eece8f3ddb69e762d75c5b5eeb1ae2048b885a6b553b659f556c7"),
    ], ids=["reroot", "reroot-closed", "quad", "census"])
    def test_exact_reports_keep_their_bytes(self, capsys, identity, n, digest):
        assert run(["verify", "--identity", identity, "--n", str(n)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_quad_battery_reports_a_broken_map(self, monkeypatch, capsys):
        build = cli.cvs_build

        def swapped(wt):
            q = build(wt)
            sigma = list(q.sigma)
            sigma[0], sigma[1] = sigma[1], sigma[0]
            return PlanarQuadrangulation(q.n, tuple(sigma), q.alpha, q.root_dart)

        monkeypatch.setattr(cli, "cvs_build", swapped)
        assert run(["verify", "--identity", "quad", "--n", "2"]) == 1
        report = read_json_stdout(capsys)
        assert report["equal"] is False
        assert report["checked"] == 9
        lines = [tree_to_line(wt.tree) for wt in enumerate_well_labelled(2)]
        assert [f.split(":")[0] for f in report["failures"]] == lines
        # caught by the validation that cvs_inverse runs first
        assert all("face of degree" in f for f in report["failures"])

    def test_quad_battery_reports_a_wrong_inverse(self, monkeypatch, capsys):
        inverse = cli.cvs_inverse

        def shifted(q):
            wt = inverse(q)
            return SpatialTree(wt.tree, wt.labels[:-1] + (wt.labels[-1] + 1,))

        monkeypatch.setattr(cli, "cvs_inverse", shifted)
        assert run(["verify", "--identity", "quad", "--n", "2"]) == 1
        report = read_json_stdout(capsys)
        assert report["equal"] is False
        assert report["failures"] == [
            tree_to_line(wt.tree) for wt in enumerate_well_labelled(2)
        ]

    def test_report_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["verify", "--identity", "census", "--n", "2",
                    "--out", str(out)]) == 0
        on_disk = json.loads(out.read_text())
        assert on_disk == read_json_stdout(capsys)

    def test_bad_n_is_usage_error(self, capsys):
        assert run(["verify", "--identity", "census", "--n", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("identity", ["quad", "census", "size-law"])
    def test_gamma_other_than_uniform3_is_usage_error(self, capsys, identity):
        # the census and the battery are about steps in {-1, 0, 1}, and the
        # size law has no steps; the re-rooting forms take pm1
        assert run(["verify", "--identity", identity, "--n", "2", "--gamma", "pm1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: identity {identity} takes only --gamma uniform3\n"

    @pytest.mark.parametrize("identity, gamma", [
        ("reroot", "uniform3"), ("reroot-closed", "pm1"), ("quad", "uniform3"),
        ("census", "uniform3"), ("size-law", "uniform3"),
    ])
    def test_budget_counts_what_verify_enumerates(self, capsys, identity, gamma):
        # the closed forms against the counts of the enumerations themselves
        for n in range(1, 5):
            assert run(["verify", "--identity", identity, "--n", str(n), "--gamma", gamma]) == 0
            report = read_json_stdout(capsys)
            if identity == "quad":
                got = report["checked"]
            elif identity == "census":
                # every shape with k edges has 3^k labellings
                got = sum(e["labelled"] // 3 ** e["n"] for e in report["entries"])
            else:
                got = report["terms"]
            assert cli._verify_items(identity, n, cli._step(gamma)) == got

    def test_catalan_numbers_past_the_census_sizes(self):
        # Segner's recurrence, beyond the n <= 8 the census used to stop at
        cat = [1]
        for k in range(1, 31):
            cat.append(sum(cat[i] * cat[k - 1 - i] for i in range(k)))
        assert [cli._catalan(k) for k in range(31)] == cat
        assert cli._catalan(9) == 4862


class TestSampleSubcommand:
    def test_plain_trees_parse_back(self, tmp_path, capsys):
        out = tmp_path / "trees.csv"
        assert run(["sample", "--measure", "Pi-n", "--n", "5", "--samples", "8",
                    "--seed", "11", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8
        for row in rows:
            assert tree_from_line(row["tree"]).n_edges == 5
        payload = read_json_stdout(capsys)
        assert payload["manifest"]["subcommand"] == "sample"
        assert payload["summary"]["rows"] == 8

    def test_labelled_trees_have_labels_column(self, tmp_path, capsys):
        out = tmp_path / "spatial.csv"
        assert run(["sample", "--measure", "P-n-x", "--n", "3", "--x", "2",
                    "--samples", "5", "--seed", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for row in rows:
            labels = [int(v) for v in row["labels"].split(";")]
            assert labels[0] == 2
            assert len(labels) == tree_from_line(row["tree"]).size

    def test_conditioned_labels_stay_positive(self, tmp_path, capsys):
        out = tmp_path / "cond.csv"
        assert run(["sample", "--measure", "Pbar-n-x", "--n", "4", "--x", "1",
                    "--samples", "6", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        for row in csv.DictReader(out.read_text().splitlines()):
            assert min(int(v) for v in row["labels"].split(";")) >= 1

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--measure", "P-n-x", "--n", "4", "--samples", "10",
                "--seed", "77"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_domain_error_is_one_line_with_status_2(self, capsys):
        assert run(["sample", "--measure", "Pbar-n-x", "--n", "5", "--x", "-1",
                    "--samples", "2", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_spent_budget_is_one_line_with_status_1(self, capsys, monkeypatch):
        def spent(*_args):
            raise RejectionBudgetExhausted("budget spent")

        monkeypatch.setattr(cli, "sample_measure", spent)
        assert run(["sample", "--measure", "Qbar-n", "--n", "5", "--samples", "2",
                    "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: budget spent\n"

    def test_other_value_errors_keep_their_traceback(self, monkeypatch):
        def broken(*_args):
            raise ValueError("a bug, not a usage error")

        monkeypatch.setattr(cli, "sample_measure", broken)
        with pytest.raises(ValueError, match="a bug"):
            run(["sample", "--measure", "Pi-n", "--n", "5", "--samples", "2", "--seed", "1"])

    LAW_DRAWS = 20_000

    @pytest.mark.parametrize("flags, law", [
        (["Pi-n", "--n", "3"], lambda: atoms(3, 0, False, labelled=False)),
        (["P-n-x", "--n", "2", "--x", "1"], lambda: atoms(2, 1, False)),
        (["Pbar-n-x", "--n", "2", "--x", "1"], lambda: conditional_label_law(2, GEO, U3, 1)),
        (["Q-n", "--n", "3"], lambda: atoms(3, 0, True)),
        (["Qbar-n", "--n", "3"], lambda: atoms(3, 0, True, keep=positive)),
    ], ids=["Pi-n", "P-n-x", "Pbar-n-x", "Q-n", "Qbar-n"])
    def test_sized_measure_law(self, tmp_path, capsys, flags, law):
        # the CLI's draws against the measure's exact law from enumeration
        out = tmp_path / "draws.csv"
        assert run(["sample", "--measure", *flags, "--samples", str(self.LAW_DRAWS),
                    "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        law, draws = law(), read_draws(out)
        assert set(draws) <= set(law)
        tv = sum(abs(draws[k] / self.LAW_DRAWS - float(p)) for k, p in law.items()) / 2
        assert tv < tv_bound(len(law), self.LAW_DRAWS)

    # sha256 of the files written when each kept Qbar-n draw was re-rooted
    # by reroot_at, one tree at a time, and every label row summed into a
    # new array: the row re-rooting and the in-place sums draw the same trees.
    # The Qbar-n and Pbar-n-x-1 files were recorded again when _tilted_rows
    # first drew its zero slots and cuts with _marks, a new stream of the
    # same law; the others kept their bytes.  The Pi, P-x and Q files were
    # first recorded when their trees were cut from one count stream.  The
    # Pbar-n-x-2, Q-n and P-n-x files were recorded again when the sized
    # count rows first drew their bars with _marks
    @pytest.mark.parametrize("flags, digest", [
        (["Qbar-n", "--n", "50"],
         "940a2fdf4e511f57a51ca81e13ddef887a27dbd23c6bc3431d696bff5d39686b"),
        (["Pbar-n-x", "--n", "50", "--x", "1"],
         "16a0ee44f4e2f4bc01d67f123081ea1a312478972b66adc7b7c8874dc1929aef"),
        (["Pbar-n-x", "--n", "20", "--x", "2"],
         "61dc5ebbc57fd137037fa737148cf3f000be445426ddf3f6d22b9f5235334594"),
        (["Q-n", "--n", "50"],
         "2781da038afb99213a39adc0fc831ea570c3c30110ef93e64189cf59a4358d5d"),
        (["P-n-x", "--n", "50"],
         "59109a7af1be6fd74753bc9895ef5431c04e78d38040720223c5944449d96279"),
        (["Pi"], "e32bd2949d624ebdeab0418ef7821f24f5832b916fa17d03dcd5d637953f9c8d"),
        (["P-x"], "5bb4f01cca0aefba3b49df10ac9201be1c8f4c2f1db89b0fa1d7078aad8bd0b1"),
        (["Q"], "54fe18144296bc7099ad29d7e1d1f20b5ffb078d3891eff9aae619102db0c981"),
        (["Pi-n", "--n", "50"],
         "0be3ae536e4c8ba4250c83ff9f9380f24a716b15684bf9a3487d11e46e350558"),
    ], ids=["Qbar-n", "Pbar-n-x-1", "Pbar-n-x-2", "Q-n", "P-n-x", "Pi", "P-x", "Q", "Pi-n"])
    def test_labelled_measures_keep_their_bytes(self, tmp_path, capsys, flags, digest):
        out = tmp_path / "draws.csv"
        assert run(["sample", "--measure", *flags, "--samples", "300", "--seed", "5",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # recorded before every route handed its count and label rows to one
    # conversion; Pbar-n-x at x = 0 is a positivity rejection.  The P-n-x
    # and Pbar-n-x-0 files were recorded again when the sized count rows
    # first drew their bars with _marks
    @pytest.mark.parametrize("flags, digest", [
        (["P-n-x", "--n", "50"],
         "efda12d226b85401f933bfc7fb232de69bc7fa1446649f8ef7094f53bcbdeaa9"),
        (["Pbar-n-x", "--n", "50", "--x", "0"],
         "f73f438ac04d6da8bfa8c44bedec8a9325c8091431a16d45eed2407e8a6e789d"),
        (["P-x"], "e6c9094cac242c0797fc1604fbf2ffcd3030fa79cc3580748a68c505e71d81f4"),
        # recorded before sample_measure returned arrays; at x = 1 the forest
        # roots carry rounding residue, printed as the integer given
        (["P-x", "--x", "1"],
         "03ffa3edf79219aa0019e91b508d7dafe80508192a3d2483f675eba882438ef0"),
        (["Q"], "058140608b7b63268af19b6d4cd618aaa3cdc421b8b5f4026055ae3c44bb8043"),
        (["Q-n", "--n", "50"],
         "2a1f85254979f372c564c64f9f16d215c4e1548d8c12815a1dab96cf2ea36859"),
        (["Qbar-n", "--n", "50"],
         "714d5405314466a76c56330d8bdd9ecfad85f223aa55b27d0955804e89e9cf94"),
    ], ids=["P-n-x", "Pbar-n-x-0", "P-x", "P-x-1", "Q", "Q-n", "Qbar-n"])
    def test_normal_steps_keep_their_bytes(self, tmp_path, capsys, flags, digest):
        out = tmp_path / "draws.csv"
        assert run(["sample", "--measure", *flags, "--gamma", "normal", "--samples", "300",
                    "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # recorded before sample_measure returned arrays; Pbar-n-x at x = 1 is
    # the re-rooting route, at x = 2 a positivity rejection
    @pytest.mark.parametrize("flags, digest", [
        (["P-x"], "eadfc1fa1fda3fb188a306e2e837a2725946d0824e83d4cb5ec37c97f844e36d"),
        (["P-n-x", "--n", "50"],
         "ae210c5c55a52da6aff9221dbdefb4587db71734fdd54d94095cd6693d1bb9a4"),
        (["Pbar-n-x", "--n", "50", "--x", "1"],
         "9724130116ade2fd41ee86da6d405b13df6ac252c44acc95b0e63e1c0191b8e5"),
        (["Pbar-n-x", "--n", "20", "--x", "2"],
         "b6f151dcbfaa147fb4f56ad500f776e2a278cd6e18973f4dff0dec7c4b9a8912"),
        (["Q"], "1ecc2b6a389ac15d9841fa9e87a8b879c1ca03b2cfdb0e999fef75fb5ea5bc6f"),
        (["Q-n", "--n", "50"],
         "04ad8538c8682e994c62dbf4ed6bdc45bd9aa5f481c53675acd82298915ba871"),
        (["Qbar-n", "--n", "50"],
         "cd1fa4fb319ab748e2100e103ba48d321d960b918e34460eb4eab557b3f093f5"),
    ], ids=["P-x", "P-n-x", "Pbar-n-x-1", "Pbar-n-x-2", "Q", "Q-n", "Qbar-n"])
    def test_pm1_steps_keep_their_bytes(self, tmp_path, capsys, flags, digest):
        out = tmp_path / "draws.csv"
        assert run(["sample", "--measure", *flags, "--gamma", "pm1", "--samples", "300",
                    "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rerooted_draws_print_the_root_label_as_given(self, tmp_path, capsys):
        # Qbar-n is rooted at 0, printed as the integer it is given as, also
        # when the re-rooted labels under normal steps are floats
        out = tmp_path / "draws.csv"
        assert run(["sample", "--measure", "Qbar-n", "--n", "3", "--gamma", "normal",
                    "--samples", "20", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 20 and all(r["labels"].startswith("0;") for r in rows)

    def test_sized_measure_requires_n(self, capsys):
        assert run(["sample", "--measure", "Pi-n", "--samples", "2",
                    "--seed", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("measure, n", [
        ("Pi-n", -1), ("P-n-x", -1), ("Pbar-n-x", -1), ("Q-n", 0), ("Qbar-n", 0),
        ("Pi", 5), ("P-x", 5), ("Q", 5),  # the unsized measures take no n
    ])
    def test_size_outside_the_measure_is_one_line_with_status_2(self, capsys, measure, n):
        assert run(["sample", "--measure", measure, "--n", str(n), "--samples", "2",
                    "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("x", [2**62 + 1, -(2**62) - 1, 10**23])
    @pytest.mark.parametrize("flags", [["P-x"], ["P-n-x", "--n", "4"], ["Pbar-n-x", "--n", "4"]],
                             ids=["P-x", "P-n-x", "Pbar-n-x"])
    def test_root_label_past_int64_reach_is_one_line_with_status_2(
            self, capsys, monkeypatch, flags, x):
        # past 2^62 a tree's labels could wrap around int64
        monkeypatch.setattr(cli, "sample_measure", never)
        assert run(["sample", "--measure", *flags, "--x", str(x), "--samples", "2",
                    "--seed", "1"]) == 2
        assert "--x" in assert_usage_error(capsys)

    @pytest.mark.parametrize("flags", [["P-x"], ["P-n-x", "--n", "4"], ["Pbar-n-x", "--n", "4"]],
                             ids=["P-x", "P-n-x", "Pbar-n-x"])
    def test_root_label_at_2_to_62_runs(self, capsys, flags):
        assert run(["sample", "--measure", *flags, "--x", str(2**62), "--samples", "3",
                    "--seed", "1"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        labels = [int(v) for _, text in rows for v in text.split(";")]
        assert [text.split(";")[0] for _, text in rows] == [str(2**62)] * 3
        assert all(abs(v - 2**62) <= MAX_VERTICES for v in labels)

    @pytest.mark.parametrize("flags", [
        ["Qbar-n", "--n", "3", "--x", "5"], ["Q-n", "--n", "3", "--x", "0"], ["Q", "--x", "1"],
        ["Pi", "--x", "4"], ["Pi-n", "--n", "3", "--x", "0"],
        ["Pi", "--gamma", "pm1"], ["Pi-n", "--n", "3", "--gamma", "normal"],
    ], ids=["Qbar-n-x", "Q-n-x", "Q-x", "Pi-x", "Pi-n-x", "Pi-pm1", "Pi-n-normal"])
    def test_input_the_measure_cannot_use_is_one_line_with_status_2(
            self, capsys, monkeypatch, flags):
        # a root label for a measure without one, or steps for unlabelled trees
        monkeypatch.setattr(cli, "sample_measure", never)
        assert run(["sample", "--measure", *flags, "--samples", "2", "--seed", "1"]) == 2
        assert_usage_error(capsys)

    @pytest.mark.parametrize("flags", [["P-x"], ["P-n-x", "--n", "4"], ["Pbar-n-x", "--n", "4"]],
                             ids=["P-x", "P-n-x", "Pbar-n-x"])
    def test_root_label_defaults_to_zero(self, tmp_path, capsys, flags):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--measure", *flags, "--samples", "20", "--seed", "6"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--x", "0", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("entries", [1, 7])
    @pytest.mark.parametrize("flags", [
        ["P-x", "--x", "1", "--gamma", "normal"], ["Pi"],
        ["Qbar-n", "--n", "9", "--gamma", "normal"],
    ], ids=["P-x-normal", "Pi", "Qbar-n-normal"])
    def test_text_does_not_depend_on_its_chunk(
            self, tmp_path, capsys, monkeypatch, flags, entries):
        # a tree's values are turned into text a chunk at a time; a chunk
        # may end inside a tree or at its root
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--measure", *flags, "--samples", "300", "--seed", "8"]
        assert run(argv + ["--out", str(a)]) == 0
        monkeypatch.setattr(cli, "_BLOCK_ENTRIES", entries)
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_one_line_with_status_2(self, capsys):
        assert run(["sample", "--measure", "Pi", "--samples", "1", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: need --seed at least 0, not -1\n"

    def test_seed_is_mandatory(self):
        with pytest.raises(SystemExit) as exc:
            run(["sample", "--measure", "Pi", "--samples", "1"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestQuadSubcommand:
    def test_one_face_frequency_table(self, tmp_path, capsys):
        out = tmp_path / "freq.csv"
        assert run(["quad", "--n", "1", "--samples", "400", "--seed", "7",
                    "--out", str(out)]) == 0
        payload = read_json_stdout(capsys)
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert payload["summary"]["distinct_codes"] == 2
        assert len(rows) == 2
        assert sum(int(r["count"]) for r in rows) == 400

    def test_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["quad", "--n", "2", "--samples", "300", "--seed", "13"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_frequency_table_keeps_its_bytes(self, tmp_path, capsys):
        # recorded before sample_measure returned arrays
        out = tmp_path / "freq.csv"
        assert run(["quad", "--n", "7", "--samples", "300", "--seed", "3",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "41927a210730539252a8ad5a718f72c2971a20d7541993156c71c6e6b78d1e15")

    def test_no_faces_is_one_line_with_status_2(self, capsys):
        assert run(["quad", "--n", "0", "--samples", "2", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_is_one_line_with_status_2(self, capsys):
        assert run(["quad", "--n", "2", "--samples", "2", "--seed", "-5"]) == 2
        assert capsys.readouterr().err == "error: need --seed at least 0, not -5\n"


class TestSnakeSubcommand:
    def test_range_csv(self, tmp_path, capsys):
        out = tmp_path / "ranges.csv"
        assert run(["snake", "--grid", "128", "--samples", "40", "--seed", "3",
                    "--out", str(out)]) == 0
        payload = read_json_stdout(capsys)
        lines = out.read_text().splitlines()
        assert lines[0] == "value"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 40
        assert all(v > 0 for v in values)
        assert payload["summary"]["mean_range"] > 0

    def test_degenerate_grid_rejected(self, capsys):
        assert run(["snake", "--grid", "1", "--samples", "5", "--seed", "1"]) == 2
        capsys.readouterr()

    def test_negative_seed_is_one_line_with_status_2(self, capsys):
        assert run(["snake", "--grid", "16", "--samples", "5", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: need --seed at least 0, not -1\n"


class TestCompareSubcommand:
    def test_report_shape_and_exit_consistency(self, capsys):
        status = run(["compare", "--discrete-n", "40", "--grid", "256",
                      "--samples", "400", "--seed", "21"])
        report = read_json_stdout(capsys)
        assert set(report) >= {"statistic", "n_a", "n_b", "threshold", "pass"}
        assert report["n_a"] == 400 and report["n_b"] == 400
        assert status == (0 if report["pass"] else 1)

    @pytest.mark.parametrize("flags", [
        ["--discrete-n", "-1"], ["--discrete-n", "0"], ["--discrete-n", "40", "--grid", "1"],
    ])
    def test_bad_sizes_are_one_line_with_status_2(self, capsys, flags):
        assert run(["compare", *flags, "--samples", "20", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_is_one_line_with_status_2(self, capsys):
        assert run(["compare", "--discrete-n", "10", "--grid", "16", "--samples", "20",
                    "--seed", "-2"]) == 2
        assert capsys.readouterr().err == "error: need --seed at least 0, not -2\n"

    def test_report_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "ks.json"
        status = run(["compare", "--discrete-n", "30", "--grid", "128",
                      "--samples", "200", "--seed", "5", "--out", str(out)])
        assert status in (0, 1)
        assert json.loads(out.read_text()) == read_json_stdout(capsys)


class TestOutPath:
    @pytest.mark.parametrize("argv, work", [
        (["sample", "--measure", "P-x", "--samples", "2", "--seed", "1"], "sample_measure"),
        (["quad", "--n", "2", "--samples", "2", "--seed", "1"], "sample_uniform_quads"),
        (["snake", "--grid", "8", "--samples", "2", "--seed", "1"], "sample_extrema"),
        (["compare", "--discrete-n", "5", "--grid", "8", "--samples", "2", "--seed", "1"],
         "sample_label_extrema"),
        (["verify", "--identity", "census", "--n", "3"], "count_well_labelled"),
    ], ids=["sample", "quad", "snake", "compare", "verify"])
    @pytest.mark.parametrize("target", ["missing", "directory", "unwritable"])
    def test_unusable_out_is_one_line_with_status_2(
            self, tmp_path, monkeypatch, capsys, argv, work, target):
        # checked before the subcommand starts, so nothing is drawn
        monkeypatch.setattr(cli, work, never)
        path = tmp_path if target == "directory" else tmp_path / "missing" / "x.csv"
        if target == "unwritable":
            path = tmp_path / "x.csv"
            monkeypatch.setattr(cli.os, "access", lambda *_args: False)
        assert run(argv + ["--out", str(path)]) == 2
        assert f"--out {path} " in assert_usage_error(capsys)
        assert list(tmp_path.iterdir()) == []


ROWS_PAST = f"error: rows of {MAX_VERTICES + 1} vertices exceed the budget of {MAX_VERTICES}\n"
SAMPLES_PAST = f"error: {MAX_VERTICES + 1} samples exceed the budget of {MAX_VERTICES}\n"


class TestSizeBudget:
    """Each sized subcommand one vertex past MAX_VERTICES, and each
    subcommand one sample past it (every sample has a vertex): a one-line
    error and status 1, raised before the rows, the block sizes or the
    result arrays are allocated, so the traced peak stays small whatever
    the host's memory overcommit would allow."""

    @pytest.mark.parametrize("argv, err", [
        (["sample", "--measure", "Qbar-n", "--n", str(MAX_VERTICES), "--samples", "2"], ROWS_PAST),
        (["sample", "--measure", "Pi-n", "--n", str(MAX_VERTICES), "--samples", "2"], ROWS_PAST),
        # a map with n faces is drawn from a tree with n + 2 vertices
        (["quad", "--n", str(MAX_VERTICES - 1), "--samples", "2"], ROWS_PAST),
        (["compare", "--discrete-n", str(MAX_VERTICES), "--samples", "2"], ROWS_PAST),
        (["snake", "--grid", str(MAX_VERTICES), "--samples", "2"], ROWS_PAST),
        (["sample", "--measure", "Pi", "--samples", str(MAX_VERTICES + 1)], SAMPLES_PAST),
        (["quad", "--n", "5", "--samples", str(MAX_VERTICES + 1)], SAMPLES_PAST),
        (["compare", "--discrete-n", "10", "--grid", "16", "--samples", str(MAX_VERTICES + 1)],
         SAMPLES_PAST),
        (["snake", "--grid", "16", "--samples", str(MAX_VERTICES + 1)], SAMPLES_PAST),
    ], ids=["sample-Qbar-n", "sample-Pi-n", "quad", "compare", "snake",
            "sample-samples", "quad-samples", "compare-samples", "snake-samples"])
    def test_one_past_the_budget_is_one_line_with_status_1(self, capsys, argv, err):
        tracemalloc.start()
        try:
            status = run([*argv, "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 1
        assert capsys.readouterr().err == err
        assert peak < 1 << 20

    @pytest.mark.parametrize("identity, err", [
        ("quad", "maps (1876446 at --n 8)"),
        ("reroot", "atoms (2814669 at --n 8)"),
    ], ids=["quad", "reroot"])
    def test_verify_past_the_budget_enumerates_nothing(self, monkeypatch, capsys, identity, err):
        # at --n 12 the battery would build about 1.6e10 maps and the
        # re-rooting identity enumerate about 3.1e10 atoms
        def never(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(cli, "enumerate_well_labelled", never)
        monkeypatch.setattr(cli, "verify_reroot_identity", never)
        assert run(["verify", "--identity", identity, "--n", "12"]) == 1
        out, got = capsys.readouterr()
        assert out == ""
        assert got == f"error: --n 12 passes the budget of 1000000 {err}\n"

    @pytest.mark.parametrize("identity, gamma, largest", [
        ("quad", "uniform3", 7), ("reroot", "uniform3", 7), ("reroot-closed", "pm1", 9),
        ("census", "uniform3", 12), ("size-law", "uniform3", 15),
    ])
    def test_largest_verify_size_in_the_budget(self, identity, gamma, largest):
        step = cli._step(gamma)
        cli._check_verify_size(identity, largest, step)
        with pytest.raises(SizeOverflow):
            cli._check_verify_size(identity, largest + 1, step)

    def test_benchmark_verify_calls_are_in_the_budget(self):
        # the argv lists of the exact-n5 workload, read from the benchmark
        # script without running it
        tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
        calls = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [t.id for t in node.targets] == ["EXACT_CALLS"])
        assert len(calls) == 4
        for argv in calls:
            args = cli.build_parser().parse_args(argv)
            cli._check_verify_size(args.identity, args.n, cli._step(args.gamma))
