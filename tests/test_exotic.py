"""Extension dichotomy, threshold bands, witnesses, and certificates."""
import json
import math

import pytest

import etale
from etale import (GrowthHypothesisError, MeasureContext, certificate,
                   default_truncation, extension_criteria, growth_stats,
                   length_weighted, lp_norm, phi_chi_lp, threshold_band,
                   witness_first_crossing, witness_ratio)


def test_phi_chi_lp_matches_explicit_norm(f2, mu_f2, f2_32, mu_f2_32):
    for model, mu in ((f2, mu_f2), (f2_32, mu_f2_32)):
        for alpha, k, p in ((0.5, 3, 2), (0.65, 5, 2), (0.7, 4, 6)):
            closed = phi_chi_lp(model, mu, alpha, k, p)
            direct = lp_norm(length_weighted(model, alpha, k), p, mu)
            assert closed == pytest.approx(direct, rel=1e-12)


def test_phi_chi_lp_edges(z6, mu_f2, f2):
    mu6 = MeasureContext.uniform(z6)
    assert phi_chi_lp(z6, mu6, 0.5, 5, 2) == 0.0  # past the diameter
    with pytest.raises(ValueError):
        phi_chi_lp(f2, mu_f2, 0.0, 1, 2)
    with pytest.raises(ValueError):
        phi_chi_lp(f2, mu_f2, 1.5, 1, 2)


def test_default_truncation(f2, z6):
    assert default_truncation(f2) == 64
    assert default_truncation(z6) == 16


def test_extension_verdicts_free(f2, mu_f2):
    ext = extension_criteria(f2, mu_f2, 0.5, 2)
    assert ext.verdict == "Extends"
    assert ext.growth_rate == pytest.approx(0.5 * math.sqrt(3), rel=1e-12)
    assert ext.K == 64

    fail = extension_criteria(f2, mu_f2, 0.65, 2)
    assert fail.verdict == "FailsToExtend"
    assert fail.growth_rate == pytest.approx(0.65 * math.sqrt(3), rel=1e-12)

    crit = extension_criteria(f2, mu_f2, 3 ** -0.5, 2)
    assert crit.verdict == "Inconclusive"
    assert abs(crit.growth_rate - 1.0) <= 1e-12

    # sphere counts 1, 4, 12 give no stable ratio, so no envelope
    short = extension_criteria(f2, mu_f2, 0.5, 2, K=2)
    assert short.verdict == "Inconclusive" and short.growth_rate is None
    assert short.reason == "sphere-count ratio did not stabilize; no certified envelope"
    assert short.cond4_grid == [(beta, None, False) for beta in (0.9, 0.99, 0.999)]


def test_extension_traces(f2, mu_f2):
    ext = extension_criteria(f2, mu_f2, 0.5, 2, K=40)
    ks = [k for k, _ in ext.cond2_trace]
    assert ks == list(range(41))
    assert ext.cond2_sup == max(v for _, v in ext.cond2_trace)
    # decaying case: the normalized masses die; partial sums stabilize
    assert ext.cond2_trace[-1][1] < ext.cond2_trace[1][1]
    partials = [v for _, v in ext.cond3_partials]
    assert all(b >= a for a, b in zip(partials, partials[1:]))

    fail = extension_criteria(f2, mu_f2, 0.65, 2, K=40)
    assert fail.cond2_trace[-1][1] > fail.cond2_trace[1][1]


def test_extension_partial_sums_past_float_range_refused(f2, mu_f2):
    # at alpha = 1 the k = 670 term overflows exp(); at alpha = 0.9995 the term
    # is finite and the sum reaches inf
    ext = extension_criteria(f2, mu_f2, 1, 2, K=669)
    assert math.isfinite(ext.cond3_partials[-1][1])
    for alpha in (1, 0.9995):
        for K in (670, 700, 1400):
            with pytest.raises(ValueError, match="at k=670"):
                extension_criteria(f2, mu_f2, alpha, 2, K=K)


def test_extension_cond4_certification(f2, mu_f2):
    for alpha in (0.5, 0.6, 0.65):
        ext = extension_criteria(f2, mu_f2, alpha, 2)
        for beta, tail, certified in ext.cond4_grid:
            want = 3 * (alpha * beta) ** 2
            assert tail == pytest.approx(want, rel=1e-12)
            assert certified == (want < 1 - 1e-12)
    # 0.6 straddles the grid: certified at beta=0.9, not at 0.999
    grid = {b: c for b, _, c in extension_criteria(f2, mu_f2, 0.6, 2).cond4_grid}
    assert grid[0.9] and not grid[0.999]


def test_extension_line_and_finite(z, mu_z, z6):
    assert extension_criteria(z, mu_z, 0.9, 2).verdict == "Extends"
    assert extension_criteria(z, mu_z, 1.0, 2).verdict == "Inconclusive"
    mu6 = MeasureContext.uniform(z6)
    sat = extension_criteria(z6, mu6, 0.99, 2)
    assert sat.verdict == "Extends"
    assert sat.K == 16
    assert all(cert for _, _, cert in sat.cond4_grid)


def test_extension_validation(f2, mu_f2):
    with pytest.raises(ValueError):
        extension_criteria(f2, mu_f2, 0.5, 1.5)
    with pytest.raises(ValueError):
        extension_criteria(f2, mu_f2, 0.0, 2)
    for beta in (-1, 0, 1.5, 1e300):
        with pytest.raises(ValueError, match=r"every beta must lie in \(0, 1\]"):
            extension_criteria(f2, mu_f2, 0.5, 3, beta_grid=[0.9, beta])
    assert extension_criteria(f2, mu_f2, 0.5, 3, beta_grid=[1]).cond4_grid[0][0] == 1


def test_dichotomy_is_monotone_in_alpha(f2, mu_f2):
    verdicts = [extension_criteria(f2, mu_f2, a, 2).verdict
                for a in (0.3, 0.45, 0.55, 0.577, 0.578, 0.6, 0.8, 1.0)]
    seen_fail = False
    for v in verdicts:
        if v == "FailsToExtend":
            seen_fail = True
        assert not (seen_fail and v == "Extends")
    assert verdicts[0] == "Extends" and verdicts[-1] == "FailsToExtend"


def test_threshold_band_free(f2):
    growth = growth_stats(f2, 8)
    band = threshold_band(growth, 2, 4)
    assert band.ratio == 3.0
    assert band.lower == pytest.approx(3 ** -0.5, rel=1e-12)
    assert band.upper == pytest.approx(3 ** -0.25, rel=1e-12)
    assert band.nonempty
    assert band.sample_alpha == pytest.approx(0.6685929774206092, rel=1e-12)
    # the sample point splits the two completions
    mu = MeasureContext.uniform(f2)
    assert extension_criteria(f2, mu, band.sample_alpha, 4).verdict == "Extends"
    assert extension_criteria(f2, mu, band.sample_alpha, 2).verdict == "FailsToExtend"


def test_threshold_band_degenerate(f2, z, z6):
    growth = growth_stats(f2, 8)
    eq = threshold_band(growth, 4, 4)
    assert not eq.nonempty and eq.sample_alpha is None
    with pytest.raises(ValueError):
        threshold_band(growth, 4, 2)
    with pytest.raises(ValueError):
        threshold_band(growth, 1.5, 4)
    with pytest.raises(GrowthHypothesisError):
        threshold_band(growth_stats(z, 8), 2, 4)
    with pytest.raises(GrowthHypothesisError):
        threshold_band(growth_stats(z6, 8), 2, 4)


def test_witness_ratio_values(f2, mu_f2):
    assert witness_ratio(f2, mu_f2, 0.65, 2, 0, 5.0) == pytest.approx(0.1)
    k = 7
    want = phi_chi_lp(f2, mu_f2, 0.65, k, 2) / (2 * 5.0 * (k + 1))
    assert witness_ratio(f2, mu_f2, 0.65, 2, k, 5.0) == pytest.approx(want, rel=1e-12)


def test_witness_crossing(f2, mu_f2):
    assert witness_first_crossing(f2, mu_f2, 0.65, 2, 5.0) == 52
    assert witness_first_crossing(f2, mu_f2, 0.65, 2, 5.0, k_cap=10) is None
    assert witness_first_crossing(f2, mu_f2, 0.5, 2, 5.0) is None
    before = witness_ratio(f2, mu_f2, 0.65, 2, 51, 5.0)
    after = witness_ratio(f2, mu_f2, 0.65, 2, 52, 5.0)
    assert before <= 1.0 < after


def test_certificate_certified(f2, mu_f2):
    growth = growth_stats(f2, 8)
    cert = certificate(f2, mu_f2, growth, 2, 6, alpha=0.65)
    assert cert.verdict == "Certified"
    assert cert.in_band
    assert cert.delta == 0.0 and cert.overlap == 5
    assert cert.extends_at_p.verdict == "Extends"
    assert cert.fails_at_q.verdict == "FailsToExtend"
    assert cert.witness_crossing == 52
    assert any(k == 52 and v > 1 for k, v in cert.witness_rows)
    json.dumps(cert, default=vars)  # report-ready, as the CLI writes it


def test_certificate_transformation_matches_group(f2, mu_f2, f2_32, mu_f2_32):
    # fiberwise data cannot see the unit action; full reports agree
    a = certificate(f2, mu_f2, growth_stats(f2, 8), 2, 6, alpha=0.65)
    b = certificate(f2_32, mu_f2_32, growth_stats(f2_32, 8), 2, 6, alpha=0.65)
    assert a == b


def test_certificate_default_sample(f2, mu_f2):
    cert = certificate(f2, mu_f2, growth_stats(f2, 8), 2, 4)
    assert cert.alpha == pytest.approx(0.6685929774206092, rel=1e-12)
    assert cert.verdict == "Certified"
    assert cert.witness_crossing == 41


def test_certificate_inconclusive_paths(f2, mu_f2):
    growth = growth_stats(f2, 8)
    weak = certificate(f2, mu_f2, growth, 2, 6, alpha=0.5)
    assert weak.verdict == "Inconclusive"
    assert "outside the band" in weak.reason
    assert "q-leg" in weak.reason
    empty = certificate(f2, mu_f2, growth, 4, 4, alpha=0.7)
    assert empty.verdict == "Inconclusive"
    with pytest.raises(GrowthHypothesisError):
        certificate(f2, mu_f2, growth, 4, 4)
