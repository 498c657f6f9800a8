import numpy as np
import pytest
from hypothesis import strategies as st

from hetnet_ee import EfficiencyModel, NetworkInstance, sample_instance


@pytest.fixture
def model():
    return EfficiencyModel(m=2)


def random_instance(rng, *, k_range=(2, 8), f_range=(1, 4), mean_cross=0.5,
                    snr_range=(-5.0, 25.0)):
    """One random valid instance; F is clipped to respect K >= F+1."""
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    f = int(rng.integers(f_range[0], min(f_range[1], k - 1) + 1))
    return sample_instance(
        k,
        f,
        mean_cross=mean_cross,
        snr_db=float(rng.uniform(*snr_range)),
        seed=int(rng.integers(2**48)),
    )


def extreme_batch(seed, trials=1500):
    """``trials`` K=3, F=2 instances from ``default_rng(seed)``: gains from
    {1e-310, 5e-324, 1e-300, 1e-5, 1, 1e300}, cross gains from {0, 0.5, 3}
    and noise from {1e-6, 1, 1e6}."""
    rng = np.random.default_rng(seed)
    gains = rng.choice([1e-310, 5e-324, 1e-300, 1e-5, 1.0, 1e300], (trials, 3, 3))
    cross = rng.choice([0.0, 0.5, 3.0], (trials, 3, 3))
    return NetworkInstance(gains[:, 0], gains[:, 1:], cross[:, 0], cross[:, 1:],
                           rng.choice([1e-6, 1.0, 1e6], (trials, 1)))


@st.composite
def edge_cases(draw):
    """Aim-3 edges: F = 0 and K = F+1, zero cross gains, tied integer gains,
    SNR -30..60 dB, m up to 100 and per-player rates spread over six decades
    (1e-3..1e3), in both regimes."""
    k = draw(st.integers(2, 8))
    f = draw(st.integers(0, k - 1) | st.integers(0, k - 1).map(lambda x: k - 1 - x))
    snr_db = draw(st.floats(-30.0, 60.0))
    rates = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=f + 1,
                                           max_size=f + 1)))
    if draw(st.booleans()):
        inst = sample_instance(k, f, mean_cross=draw(st.sampled_from([0.0, 0.5, 2.0])),
                               snr_db=snr_db, rates=rates, seed=draw(st.integers(0, 2**32)))
    else:
        def ints(lo, n):
            return draw(st.lists(st.integers(lo, 3), min_size=n, max_size=n))

        inst = NetworkInstance(
            g0=ints(1, k), gf=np.reshape(ints(1, f * k), (f, k)), h0=ints(0, k),
            hf=np.reshape(ints(0, f * k), (f, k)), sigma2=10.0 ** (-snr_db / 10.0),
            rates=rates)
    model = EfficiencyModel(m=draw(st.sampled_from([2, 3, 5, 10, 100])))
    return inst, model, draw(st.sampled_from(["dense", "sparse"]))
