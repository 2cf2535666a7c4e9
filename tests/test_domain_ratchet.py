"""The domain ratchet: where a stage fails today, as a bit mask over a fixed grid.

Each scan runs every input of its grid alone, under the CLI's errstate, and
records the inputs that raise ValueError or ArithmeticError: bit k of a mask
is input k of the grid, in `itertools.product` order.  Today's failures must
be a subset of the recorded mask, so a change that breaks a working input
fails here; a change that fixes inputs clears their bits.  Each mask is the
union of the failures with numpy's AVX-512 loops on and off: numpy's sinh,
cosh, exp, log, arcsinh and power give other bits on the two paths, which
moves a few inputs across the round-trip bound and the clamps.
"""

import itertools

import numpy as np

from lossprobe.channel import LossChannel, output_params_two
from lossprobe.correlations import correlation_report
from lossprobe.probes import ProbeSpec, discriminate, params_from_spec


def failure_mask(inputs, run) -> int:
    """Bit k set where run(*inputs[k]) raises ValueError or ArithmeticError under the CLI's errstate."""
    mask = 0
    for k, x in enumerate(inputs):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                run(*x)
        except (ValueError, ArithmeticError):
            mask |= 1 << k
    return mask


def assert_within(inputs, run, recorded: str) -> None:
    new = failure_mask(inputs, run) & ~int(recorded, 16)
    assert not new, [x for k, x in enumerate(inputs) if new >> k & 1]


def two_mode_probe(n, beta, gamma):
    return params_from_spec(ProbeSpec(modes=2, n=n, beta=beta, gamma=gamma))


# 249 of 735: 240 fail with the AVX-512 loops and 232 without
RECOVERY_MASK = (
    "3f7efffbfffffffffefff800001fbf7ffdffbfedfffffffc00000fdfbffeffffe7ffbf3ffe00000040814001040000400002"
    "000000408100000200002800210000000000000000800200000000000000000000000000000000000000"
)

# 697 of 1,800: 669 fail with the AVX-512 loops and 654 without
CORRELATIONS_MASK = (
    "fff31f9c0fffffffc0fdffff7ccfffb7ffc8fffeeffc0ff3fff70cfedaff200fdefffdd0ffff7ffc2fffdfff8cfff7fbdccf"
    "fffdefc0ffff7ffc0fd77be598fedfef540fffeffec0fd6eeddc0fff7bffccfffaff300ff7dfbdc0fffefff40fffbffb42fd"
    "efd9ed0ffffff000fffcdf000ffffe500001630000800c000000000000000000000008000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000000000000000000000000"
)

# 351 of 832: 340 fail with the AVX-512 loops and 337 without
DISCRIMINATE_MASK = (
    "ffffffffffffffffffffffffdddffffffffffffdffdbf8f0fffffffff050fffffffff0f0fffeffefe000fffffefde0001110"
    "d880c000000000000000222001001000000000000000000000000000000f000f000f00080000000000000000000000000000"
    "00000000"
)


def test_recovery_failures_stay_within_their_mask():
    # two-mode recovery on the 105 (beta, gamma, eta) points of the probe
    # grid at 7 energies: ParameterRecoveryError from the absolute 1e-9
    # round-trip bound, and the "came out negative" clamps
    inputs = list(itertools.product((1e3, 3e4, 1e5, 1e6, 1e8, 1e10, 1e12), (0.0, 0.1, 0.5, 0.999, 1.0),
                                    (0.0, 0.5, 1.0), (1e-3, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0)))
    assert len(inputs) == 735
    assert_within(inputs, lambda n, beta, gamma, eta: output_params_two(two_mode_probe(n, beta, gamma),
                                                                        LossChannel.from_eta(eta)), RECOVERY_MASK)


def test_correlation_failures_stay_within_their_mask():
    # E, D and I of the input state at large N: sqrt and log of cancelled
    # differences, and discord below its roundoff floor at beta = 0
    inputs = list(itertools.product(np.logspace(4, 12, 50).tolist(), (0.0, 0.2, 0.5, 0.8, 0.99, 1.0),
                                    (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)))
    assert len(inputs) == 1800
    assert_within(inputs, lambda n, beta, gamma: correlation_report(two_mode_probe(n, beta, gamma)), CORRELATIONS_MASK)


def test_discriminate_failures_stay_within_their_mask():
    # the qcb command's whole path, one probe at a time, at every half decade
    # of N: the recovery's round-trip bound and clamps, and "divide by zero"
    # in G_s = 1 / ((x + 1)^s - x^s) at large occupations
    n = np.logspace(4, 12, 13).tolist()
    beta, eta = (0.0, 0.5, 0.99, 1.0), (1e-3, 0.3, 0.9, 0.999)
    inputs = [(1, *x[:2], None, x[2]) for x in itertools.product(n, beta, eta)]
    inputs += [(2, *x) for x in itertools.product(n, beta, (0.0, 0.5, 1.0), eta)]
    assert len(inputs) == 832
    assert_within(inputs, lambda modes, n, beta, gamma, eta: discriminate(
        ProbeSpec(modes=modes, n=n, beta=beta, gamma=gamma), LossChannel.from_eta(eta)), DISCRIMINATE_MASK)
