"""End-to-end tests of the command line front end.

These drive run() with argv lists, never a subprocess, so exit codes and
emitted files are checked directly.  Determinism matters throughout: the
same flags must produce byte-identical data files.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from treesnake import cli
from treesnake.cli import run
from treesnake.exact_enum import conditional_label_law, labelled_atoms
from treesnake.gw_sampler import OffspringDistribution, RejectionBudgetExhausted, StepDistribution
from treesnake.plane_tree import tree_from_line, tree_to_line
from treesnake.quadmap import PlanarQuadrangulation, enumerate_well_labelled
from treesnake.spatial_tree import SpatialTree


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

    def test_sized_measure_requires_n(self, capsys):
        assert run(["sample", "--measure", "Pi-n", "--samples", "2",
                    "--seed", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("measure, n", [
        ("Pi-n", -1), ("P-n-x", -1), ("Pbar-n-x", -1), ("Q-n", 0), ("Qbar-n", 0),
    ])
    def test_size_outside_the_measure_is_one_line_with_status_2(self, capsys, measure, n):
        assert run(["sample", "--measure", measure, "--n", str(n), "--samples", "2",
                    "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
