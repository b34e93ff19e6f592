"""`risks.csv` written from a report's integer numerators.

`reference_write_risks` is `write_risks` as it was when every row came from
`RiskReport.risks`: one `Fraction` per version, its numerator, denominator
and `float`.  The properties below require the integer route to write the
same bytes for every kind of report, from one `Fraction` per distinct
(numerator, total) pair, and `baselines.max_risk` to equal the largest risk
of one report and of a whole list.
"""

import shutil
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mdistinct import cli, fileio
from mdistinct.baselines import max_risk
from mdistinct.fileio import write_csv, write_risks
from mdistinct.sug import RiskReport

F = Fraction


def reference_write_risks(path, reports):
    rows = [["id", "version", "risk_num", "risk_den", "risk_decimal"]]
    for report in sorted(reports, key=lambda r: r.record_id):
        for version, risk in zip(report.versions, report.risks):
            rows.append([report.record_id, str(version),
                         str(risk.numerator), str(risk.denominator),
                         f"{float(risk):.12g}"])
    write_csv(path, rows)


TOTALS = st.one_of(st.integers(1, 1000),
                   st.integers(2**64 + 1, 2**80),
                   st.integers(10**400 + 1, 10**401))


@st.composite
def report_args(draw):
    """(record id, versions, numerators, total, read first) for one report:
    integer numerators from 0 to the total, or the `Fraction` masses of the
    joint oracle, or given risks over 1."""
    kind = draw(st.sampled_from(["int", "fraction", "given"]))
    total = draw(TOTALS)
    nums = st.one_of(st.just(0), st.just(total), st.integers(0, total))
    numerators = draw(st.lists(nums, min_size=1, max_size=5))
    if kind == "fraction":
        scale = draw(st.integers(1, 10**6))
        numerators = [F(n, scale) for n in numerators]
        total = F(total, scale)
    elif kind == "given":
        numerators = [F(n, total) for n in numerators]
        total = 1
    versions = tuple(range(1, len(numerators) + 1))
    rid = draw(st.text("abcxyz", min_size=1, max_size=3))
    return rid, versions, tuple(numerators), total, draw(st.booleans())


def _made(args):
    rid, versions, numerators, total, read_first = args
    report = RiskReport(rid, versions, numerators, total)
    if read_first:
        report.risks
    return report


@settings(max_examples=300, deadline=None)
@given(st.lists(report_args(), min_size=1, max_size=6))
def test_integer_route_writes_the_reference_bytes(tmp_path_factory, cases):
    tmp = tmp_path_factory.mktemp("risks")
    write_risks(tmp / "new.csv", [_made(a) for a in cases])
    reference_write_risks(tmp / "old.csv", [_made(a) for a in cases])
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    assert max_risk([_made(a) for a in cases]) == max(
        max(_made(a).risks) for a in cases)
    assert max_risk([]) == 0
    for args in cases:
        report, read = _made(args), _made(args)
        assert max_risk([report]) == max(read.risks)
        assert max_risk([read]) == max(read.risks)
        assert report.vulnerable == report.risks.count(1)
        given = RiskReport(args[0], args[1], report.risks, 1)
        assert report == given and given == report
        assert hash(report) == hash(given)


def test_an_unread_integer_report_is_written_without_its_risks(
        tmp_path, monkeypatch):
    def unread(self):
        raise AssertionError("a risk was read")

    report = RiskReport("a", (1, 2, 3), (0, 6, 4), 12)
    monkeypatch.setattr(RiskReport, "risks", property(unread))
    write_risks(tmp_path / "risks.csv", [report])
    assert max_risk([report]) == F(1, 2)
    assert (tmp_path / "risks.csv").read_text().splitlines()[1:] == [
        "a,1,0,1,0", "a,2,1,2,0.5", "a,3,1,3,0.333333333333"]


def test_each_distinct_pair_is_made_into_one_fraction(tmp_path,
                                                      monkeypatch):
    """Int, `Fraction` and given reports whose (numerator, total) pairs
    repeat, within a report and across reports."""
    reports = [RiskReport("a", (1, 2, 3), (0, 6, 6), 12),
               RiskReport("b", (1, 2, 3), (6, 4, 0), 12),
               RiskReport("c", (2, 3), (F(1, 3), F(1, 3)), F(2, 3)),
               RiskReport("d", (1, 3), (F(1, 3), F(1, 2)), F(2, 3)),
               RiskReport("e", (1, 2), (F(1, 2), F(1, 2)), 1),
               RiskReport("f", (2,), (F(1, 3),), 1)]
    pairs = {(n, r.total) for r in reports for n in r.numerators}
    want = tmp_path / "want.csv"
    reference_write_risks(want, reports)
    built = []

    def counted(*args):
        built.append(args)
        return F(*args)

    monkeypatch.setattr(fileio, "Fraction", counted)
    write_risks(tmp_path / "risks.csv", reports)
    assert len(built) == len(pairs) == 7
    assert (tmp_path / "risks.csv").read_bytes() == want.read_bytes()


def test_attack_reads_no_risk(tmp_path, data_dir, monkeypatch, capsys):
    """The worked example's attack writes the same risks.csv and summary
    line when reading a report's risks raises."""
    shutil.copy(data_dir / "disease_transitions.csv", tmp_path / "model.csv")
    hist = tmp_path / "hist"
    base = ["--model", str(tmp_path / "model.csv"), "--history", str(hist)]
    for snap in ("microdata_t1.csv", "microdata_t2.csv"):
        assert cli.main(["publish", "--microdata", str(data_dir / snap),
                         "--m", "2", "--seed", "3", *base]) == 0
    capsys.readouterr()
    assert cli.main(["attack", *base]) == 0
    want_out = capsys.readouterr().out
    want = (hist / "risks.csv").read_bytes()
    (hist / "risks.csv").unlink()

    def unread(self):
        raise AssertionError("a risk was read")

    monkeypatch.setattr(RiskReport, "risks", property(unread))
    assert cli.main(["attack", *base]) == 0
    assert capsys.readouterr().out == want_out
    assert "max risk 1/2" in want_out
    assert (hist / "risks.csv").read_bytes() == want
    with pytest.raises(AssertionError, match="a risk was read"):
        RiskReport("a", (1,), (1,), 2).risks
