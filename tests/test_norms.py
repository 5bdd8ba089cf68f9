import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framethresh.core import CoefficientVector
from framethresh.norms import NormSpec, NormSpecError, evaluate
from framethresh.transforms import WaveletBasis


def wavelet_template(J=4):
    js = np.concatenate([np.full(2 ** j, j) for j in range(J)])
    ks = np.concatenate([np.arange(2 ** j) for j in range(J)])
    return CoefficientVector(np.zeros(len(js)), ("j", "k"), (js, ks))


def test_zero_coefficients_all_specs():
    specs = [NormSpec("weighted_l2"),
             NormSpec("pqr_wavelet", p=1, q=1, r=0)]
    for spec, tpl in zip(specs, (CoefficientVector(np.zeros(8)), wavelet_template())):
        assert evaluate(spec, tpl) == 0.0


def test_single_coefficient_scale_weight():
    # s = r + 1/2 - 1/p; at p = q = 2 a unit coefficient at scale j
    # contributes 2^{js}
    tpl = wavelet_template()
    for r, j in ((0.5, 3), (1.0, 2)):
        spec = NormSpec("pqr_wavelet", p=2, q=2, r=r)
        s = spec.scale_exponent
        x = tpl.values.copy()
        idx = int(np.nonzero(tpl.labels[0] == j)[0][0])
        x[idx] = 1.0
        assert evaluate(spec, tpl.replace_values(x)) == pytest.approx(2.0 ** (j * s))
        assert s == pytest.approx(r)  # 1/2 - 1/p = 0 at p = 2


def test_pqr_p2q2r0_reduces_to_l2(rng):
    tpl = wavelet_template()
    spec = NormSpec("pqr_wavelet", p=2, q=2, r=0)
    for _ in range(5):
        x = rng.standard_normal(tpl.count)
        assert evaluate(spec, tpl.replace_values(x)) == pytest.approx(
            float(np.linalg.norm(x)), rel=1e-12)


def test_weighted_l2_parseval(rng):
    wb = WaveletBasis(32, "haar")
    u = rng.standard_normal(32)
    u -= u.mean()  # kill the carried scaling part
    cv = wb.analyze(u)
    spec = NormSpec("weighted_l2")
    assert evaluate(spec, cv) == pytest.approx(float(np.linalg.norm(u)), rel=1e-10)


def test_weight_validation():
    with pytest.raises(NormSpecError):
        NormSpec("weighted_l2", weights=(1.0, 0.0))
    with pytest.raises(NormSpecError):
        NormSpec("pqr_wavelet", p=0.5)
    with pytest.raises(NormSpecError):
        NormSpec("pqr_wavelet", r=-1)
    with pytest.raises(NormSpecError):
        NormSpec("sobolev")


def test_weight_length_mismatch():
    spec = NormSpec("weighted_l2", weights=(1.0, 2.0))
    with pytest.raises(NormSpecError):
        evaluate(spec, CoefficientVector(np.zeros(3)))


def test_incompatible_index_set():
    spec = NormSpec("pqr_wavelet", p=1, q=1)
    with pytest.raises(NormSpecError):
        evaluate(spec, CoefficientVector(np.zeros(4)))  # flat labels only


def is_monotone(spec, template, pairs=1000, seed=20240):
    """Draw `pairs` random (x, xbar) with |x| <= |xbar| coordinatewise on
    the template's index set and check evaluate(x) <= evaluate(xbar) every
    time."""
    rng = np.random.default_rng(seed)
    count = template.count
    for _ in range(pairs):
        xbar = rng.standard_normal(count) * np.exp(rng.uniform(-1, 2))
        frac = rng.uniform(0.0, 1.0, count)
        signs = rng.choice([-1.0, 1.0], count)
        x = signs * frac * np.abs(xbar)
        lo = evaluate(spec, template.replace_values(x))
        hi = evaluate(spec, template.replace_values(xbar))
        if lo > hi * (1 + 1e-12):
            return False
    return True


def test_is_monotone_all_kinds():
    assert is_monotone(NormSpec("weighted_l2"), CoefficientVector(np.zeros(32)))
    assert is_monotone(NormSpec("pqr_wavelet", p=1, q=1, r=0), wavelet_template(5))
    assert is_monotone(NormSpec("pqr_wavelet", p=3, q=1.5, r=2), wavelet_template(5))


def test_monotone_under_halving(rng):
    tpl = wavelet_template()
    spec = NormSpec("pqr_wavelet", p=1, q=1, r=0)
    x = rng.standard_normal(tpl.count)
    assert evaluate(spec, tpl.replace_values(0.5 * x)) <= evaluate(
        spec, tpl.replace_values(x))


def test_sign_invariance(rng):
    tpl = wavelet_template()
    x = rng.standard_normal(tpl.count)
    for spec in (NormSpec("weighted_l2"), NormSpec("pqr_wavelet", p=1, q=2, r=1)):
        assert evaluate(spec, tpl.replace_values(x)) == pytest.approx(
            evaluate(spec, tpl.replace_values(np.abs(x))), rel=1e-12)


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_absolute_homogeneity(lam):
    tpl = wavelet_template()
    rng = np.random.default_rng(99)
    x = rng.standard_normal(tpl.count)
    for spec in (NormSpec("weighted_l2"),
                 NormSpec("pqr_wavelet", p=1.5, q=2.5, r=0.25)):
        base = evaluate(spec, tpl.replace_values(x))
        assert evaluate(spec, tpl.replace_values(lam * x)) == pytest.approx(
            abs(lam) * base, rel=1e-10, abs=1e-12)


def test_norm_spec_from_json():
    spec = NormSpec.from_json('{"kind":"pqr_wavelet","p":1,"q":1,"r":0}')
    assert spec.kind == "pqr_wavelet" and spec.p == 1 and spec.q == 1


@pytest.mark.parametrize("text", [
    '[1]', '{"p": 1}', '{"kind": "besov"}', '{"kind": "pqr_wavelet", "p": "a"}',
    '{"kind": "pqr_wavelet", "q": Infinity}', '{"kind": "pqr_wavelet", "r": true}',
    '{"kind": "weighted_l2", "weights": 5}', '{"kind": "weighted_l2", "weights": [1, "a"]}',
    '{"kind": "weighted_l2", "weights": [1, NaN]}'])
def test_malformed_norm_spec_is_norm_spec_error(text):
    with pytest.raises(NormSpecError):
        NormSpec.from_json(text)


def test_unreadable_weights_path_is_os_error(tmp_path):
    with pytest.raises(OSError):
        NormSpec.from_json(json.dumps(
            {"kind": "weighted_l2", "weights_path": str(tmp_path / "none.csv")}))

def test_wavelet_coefficients_feed_pqr_directly(rng):
    wb = WaveletBasis(64, "haar")
    cv = wb.analyze(rng.standard_normal(64))
    spec = NormSpec("pqr_wavelet", p=1, q=1, r=0)
    val = evaluate(spec, cv)
    # s = -1/2 at p = 1, r = 0: sum_j 2^{-j/2} ||x_j||_1
    js = cv.labels[0]
    expected = sum(2.0 ** (-0.5 * j) * np.sum(np.abs(cv.values[js == j]))
                   for j in np.unique(js))
    assert val == pytest.approx(expected, rel=1e-12)


def test_evaluate_block_equals_per_row(rng):
    tpl = wavelet_template()
    cases = [(NormSpec("weighted_l2"), tpl),
             (NormSpec("weighted_l2", weights=tuple(rng.uniform(0.5, 2.0, tpl.count))), tpl),
             (NormSpec("pqr_wavelet", p=1, q=1, r=0), tpl),
             (NormSpec("pqr_wavelet", p=2, q=3, r=1.5), tpl)]
    for spec, template in cases:
        block = rng.standard_normal((6, template.count))
        got = evaluate(spec, CoefficientVector(block, template.label_names,
                                               template.labels))
        want = [evaluate(spec, template.replace_values(row)) for row in block]
        assert got.shape == (6,)
        assert np.array_equal(got, want)


class _NoBytes(np.ndarray):
    """A label column that refuses to be copied to bytes."""

    def tobytes(self, *args, **kwargs):
        raise AssertionError("label column copied to bytes")


@pytest.mark.parametrize("spec, template", [
    (NormSpec("pqr_wavelet", p=2, q=1.5, r=0.5), wavelet_template())],
    ids=["wavelet"])
def test_scale_groups_are_cached_per_column_object(spec, template, rng):
    # a hit copies no column; an equal column in a new object gets equal
    # groups; the cache entry keeps its columns alive, so their ids cannot
    # be taken by another column while it lives
    from framethresh import norms
    labels = tuple(col.view(_NoBytes) for col in template.labels)
    cv = CoefficientVector(rng.standard_normal((3, template.count)),
                           template.label_names, labels)
    first = evaluate(spec, cv)
    groups = norms._scale_groups(spec, cv)
    assert norms._scale_groups(spec, cv) is groups
    assert evaluate(spec, cv).tobytes() == first.tobytes()
    fresh = CoefficientVector(cv.values, cv.label_names,
                              tuple(np.array(col) for col in labels))
    again = norms._scale_groups(spec, fresh)
    assert again is not groups
    assert [key for key, _ in again] == [key for key, _ in groups]
    for (_, a), (_, b) in zip(again, groups):
        assert (a == b) if isinstance(a, slice) else np.array_equal(a, b)
    assert evaluate(spec, fresh).tobytes() == first.tobytes()
    jcol = labels[0]
    assert any(entry[0] is jcol for entry in norms._GROUP_CACHE.values())


def test_pqr_scale_weight_overflow_is_a_norm_spec_error():
    # 2^(j s q) at j = 1 with s = r + 1/2 - 1/p = 1e300 is past the float range
    with pytest.raises(NormSpecError, match="overflows"):
        evaluate(NormSpec("pqr_wavelet", p=1, q=1, r=1e300), wavelet_template())
