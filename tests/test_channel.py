"""Noise-stream determinism, statistics, and channel contracts."""

import math
import pathlib
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtri

from skfb import channel
from skfb.channel import (
    ROLE_FEEDBACK,
    ROLE_FORWARD,
    AwgnChannel,
    make_channels,
    message_indices,
    raw_stream,
    snr_db_to_noise_std,
    standard_normals,
)
from skfb.core import SkConfig

SEED = 0xFEEDBEEF


def _forward(snr_db: float, trials: int, n_steps: int) -> AwgnChannel | None:
    cfg = SkConfig(k=1, n_total=n_steps, forward_snr_db=snr_db, seed=SEED)
    return make_channels(cfg, 0, trials)[0]


def test_make_channels_derives_each_roles_noise():
    cfg = SkConfig(k=2, n_total=5, forward_snr_db=3.0, feedback_snr_db=20.0, seed=SEED)
    forward, feedback = make_channels(cfg, 10, 40)
    assert forward.sigma == snr_db_to_noise_std(3.0)
    assert feedback.sigma == snr_db_to_noise_std(20.0)
    assert np.array_equal(forward.noise, standard_normals(SEED, ROLE_FORWARD, 10, 40, 5))
    assert np.array_equal(feedback.noise, standard_normals(SEED, ROLE_FEEDBACK, 10, 40, 5))
    forward, feedback = make_channels(replace(cfg, feedback_snr_db=math.inf), 10, 40)
    assert forward is not None and feedback is None


@pytest.mark.parametrize("uses", [1, 3, 150])
def test_the_first_uses_of_a_block_hold_the_full_blocks_variates(uses):
    cfg = SkConfig(k=2, n_total=150, forward_snr_db=3.0, feedback_snr_db=20.0, seed=SEED)
    full = make_channels(cfg, 10, 500)
    first = make_channels(cfg, 10, 500, uses=uses)
    for whole, part in zip(full, first):
        assert part.noise.shape == (490, uses)
        assert np.array_equal(part.noise, whole.noise[:, :uses])
    with pytest.raises(ValueError, match="uses"):
        standard_normals(SEED, ROLE_FORWARD, 0, 4, 5, out=np.empty((6, 4)))


@pytest.mark.parametrize("n_steps", [1, 5, 150])
def test_noise_parts_written_into_a_view_equal_the_whole_block(n_steps):
    cfg = SkConfig(k=1, n_total=n_steps, forward_snr_db=3.0, feedback_snr_db=20.0, seed=SEED)
    lo, hi = 37, 37 + 2 * channel.NOISE_PART_TRIALS + 11  # a ragged last part
    parts = []
    forward, feedback = make_channels(cfg, lo, hi, parts)
    assert len(parts) == 2 * 3
    for part in parts[::-1]:  # in any order
        part()
    for ch, role in ((forward, ROLE_FORWARD), (feedback, ROLE_FEEDBACK)):
        whole = standard_normals(SEED, role, lo, hi, n_steps)
        assert np.array_equal(ch.noise.view(np.uint64), whole.view(np.uint64))
        assert ch.noise.T.flags.c_contiguous  # step-major
    # one part into a column slice of a larger block
    block = np.full((n_steps, 100), np.nan)
    got = standard_normals(SEED, ROLE_FORWARD, 50, 80, n_steps, block[:, 20:50])
    want = standard_normals(SEED, ROLE_FORWARD, 50, 80, n_steps)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(block[:, 20:50], want.T)
    assert np.isnan(block[:, :20]).all() and np.isnan(block[:, 50:]).all()


def test_noise_out_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="shape"):
        standard_normals(SEED, ROLE_FORWARD, 0, 10, 3, np.empty((3, 9)))


def test_zero_db_noise_variance():
    ch = _forward(0.0, 1_000_000, 1)
    y = ch.transmit(np.zeros(1_000_000), 0)
    assert np.var(y) == pytest.approx(1.0, abs=0.01)
    assert np.mean(y) == pytest.approx(0.0, abs=0.01)


def test_feedback_noise_variance_at_23_db():
    assert snr_db_to_noise_std(23.0) ** 2 == pytest.approx(10.0 ** -2.3, rel=1e-12)
    assert snr_db_to_noise_std(23.0) ** 2 == pytest.approx(0.005012, abs=5e-6)


def test_same_seed_same_sequence():
    a = standard_normals(SEED, ROLE_FORWARD, 0, 100, 9)
    b = standard_normals(SEED, ROLE_FORWARD, 0, 100, 9)
    assert np.array_equal(a, b)
    c = standard_normals(SEED + 1, ROLE_FORWARD, 0, 100, 9)
    assert not np.array_equal(a, c)


def test_trial_noise_independent_of_range_boundaries():
    # the keystone of worker-count invariance
    full = standard_normals(SEED, ROLE_FORWARD, 0, 100, 7)
    left = standard_normals(SEED, ROLE_FORWARD, 0, 37, 7)
    right = standard_normals(SEED, ROLE_FORWARD, 37, 100, 7)
    assert np.array_equal(full, np.vstack([left, right]))


@pytest.mark.parametrize("n_steps", [1, 3, 4, 5, 150])
# [100, 1100) spans several conversion tiles at 150 steps; a tile of one
# word is below every stride, so each trial is a tile of its own
@pytest.mark.parametrize("lo, hi, tile_words", [
    pytest.param(0, 37, None, id="0-37"),
    pytest.param(37, 100, None, id="37-100"),
    pytest.param(100, 1100, None, id="100-1100"),
    pytest.param(5, 12, 1, id="5-12-one-trial-tiles"),
])
def test_step_major_block_matches_a_trial_major_reference(n_steps, lo, hi, tile_words):
    stride = 4 * -(-n_steps // 4)
    words = raw_stream(SEED, ROLE_FEEDBACK, lo * stride, (hi - lo) * stride)
    words = words.reshape(hi - lo, stride)[:, :n_steps]
    want = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    with mock.patch.object(channel, "_TILE_WORDS", tile_words or channel._TILE_WORDS):
        got = standard_normals(SEED, ROLE_FEEDBACK, lo, hi, n_steps)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # channel use j reads one contiguous column
    assert all(got[:, j].flags.c_contiguous for j in range(n_steps))


def test_forward_and_feedback_streams_are_independent():
    n = 1_000_000
    f = standard_normals(SEED, ROLE_FORWARD, 0, n, 1)[:, 0]
    g = standard_normals(SEED, ROLE_FEEDBACK, 0, n, 1)[:, 0]
    r = float(np.mean(f * g))  # correlation of standard normals
    assert abs(r) < 3.0 / math.sqrt(n)


def test_empirical_snr_convention():
    # unit-power +/-1 input at 10 dB: Var(y - x) = 0.1
    n = 200_000
    ch = _forward(10.0, n, 1)
    x = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = ch.transmit(x, 0)
    assert np.var(y - x) == pytest.approx(0.1, rel=0.03)


def test_transmit_rejects_non_finite():
    ch = _forward(0.0, 2, 1)
    with pytest.raises(ValueError):
        ch.transmit(np.array([1.0, np.nan]), 0)


def test_transmit_consumes_steps_in_order():
    # use n reads noise column n, whatever was transmitted before
    noise = np.arange(6, dtype=np.float64).reshape(2, 3)
    ch = AwgnChannel(sigma=1.0, noise=noise)
    assert np.array_equal(ch.transmit(np.zeros(2), 0), [0.0, 3.0])
    assert np.array_equal(ch.transmit(np.zeros(2), 1), [1.0, 4.0])
    assert np.array_equal(ch.transmit(np.zeros(2), 0), [0.0, 3.0])
    assert np.array_equal(ch.transmit(np.ones(2), 2), [3.0, 6.0])


@pytest.mark.parametrize("seed, role", [(SEED, ROLE_FORWARD), (2**64 - 1, ROLE_FEEDBACK), (0, 2)])
def test_the_cached_role_seed_gives_the_stream_of_a_fresh_key(seed, role):
    ss = channel._role_seed(seed, role)
    assert channel._role_seed(seed, role) is ss  # built once per (seed, role)
    key = np.random.SeedSequence(entropy=seed, spawn_key=(role,)).generate_state(2, np.uint64)
    for counter in (0, 37, 2**62):
        want = np.random.Philox(key=key, counter=counter).random_raw(1027)
        assert np.array_equal(raw_stream(seed, role, 4 * counter, 1027), want)


def test_raw_stream_requires_alignment():
    with pytest.raises(ValueError):
        raw_stream(SEED, ROLE_FORWARD, 2, 4)


def test_message_indices_range_and_determinism():
    v = message_indices(SEED, 0, 50_000, 5)
    assert v.max() < 32
    assert np.array_equal(v, message_indices(SEED, 0, 50_000, 5))
    # chunk invariance for messages too
    assert np.array_equal(v[10_000:], message_indices(SEED, 10_000, 50_000, 5))
    # roughly uniform
    counts = np.bincount(v.astype(int), minlength=32)
    assert counts.min() > 50_000 / 32 * 0.9


def test_message_indices_full_width():
    v = message_indices(SEED, 0, 1000, 64)
    assert v.dtype == np.uint64
    assert len(np.unique(v)) == 1000  # collisions vanish at 64 bits


def test_the_largest_philox_word_gives_an_infinite_variate():
    # (2^53 - 1) + 0.5 rounds to 2^53, so u = 1.0 and ndtri(u) = +inf; the
    # codec fails that trial alone (test_codec's infinite-variate test)
    words = np.array([0, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1, 0, 1, 2, 3], dtype=np.uint64)
    with mock.patch.object(channel, "raw_stream", lambda *args: words.copy()):
        z = standard_normals(SEED, ROLE_FORWARD, 0, 2, 4)
    assert np.array_equal(np.isinf(z), [[False, False, True, True], [False] * 4])
    assert z[0, 2] == z[0, 3] == math.inf


def _fresh_interpreter(code: str) -> None:
    # the test process has imported scipy.special and numpy.random itself,
    # so a fresh one shows what importing skfb loads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# package: (module, what the direct load puts in sys.modules, a check that
# skfb's names are the package's, a check that the package's __init__ ran)
_UNEXECUTED = {
    "scipy.special": (
        "_ufuncs",
        ["scipy.special._ufuncs"],
        "channel.ndtri is package.ndtri and codec.ndtr is package.ndtr",
        "'erfinv' in package.__all__",
    ),
    "numpy.random": (
        "_philox",
        ["numpy.random.bit_generator", "numpy.random._philox"],
        "channel.Philox is package.Philox and channel.SeedSequence is package.SeedSequence",
        "callable(package.default_rng)",
    ),
}


@pytest.mark.parametrize("package", list(_UNEXECUTED))
def test_importing_the_tool_leaves_the_package_unexecuted(package):
    _, loaded, _, _ = _UNEXECUTED[package]
    _fresh_interpreter(
        "import sys, skfb.cli\n"
        f"assert {package!r} not in sys.modules, '{package} was imported'\n"
        f"assert all(name in sys.modules for name in {loaded!r})\n"
        "assert 'numpy.random.mtrand' not in sys.modules\n"
    )


@pytest.mark.parametrize("package", list(_UNEXECUTED))
def test_a_later_import_of_the_package_shares_the_loaded_objects(package):
    _, loaded, same, executed = _UNEXECUTED[package]
    _fresh_interpreter(
        "import sys, skfb.cli\n"
        "from skfb import channel, codec\n"
        f"before = [sys.modules[name] for name in {loaded!r}]\n"
        f"import {package}\n"
        f"package = sys.modules[{package!r}]\n"
        f"assert all(m is sys.modules[n] for m, n in zip(before, {loaded!r}))  # not reloaded\n"
        f"assert {same}\n"
        f"assert {executed}  # the package's __init__ ran\n"
    )


@pytest.mark.parametrize("package", list(_UNEXECUTED))
def test_a_failed_direct_load_falls_back_to_the_package(package):
    _, _, same, executed = _UNEXECUTED[package]
    _fresh_interpreter(
        "import importlib, sys\n"
        "load = importlib.import_module\n"
        "def refuse(name, package=None):\n"
        f"    if name.startswith({package + '.'!r}):\n"
        "        raise ImportError('refused')\n"
        "    return load(name, package)\n"
        "importlib.import_module = refuse\n"
        "from skfb import channel, codec\n"
        f"package = sys.modules[{package!r}]\n"
        f"assert {executed}  # the executed package, not a stand-in\n"
        f"assert {same}\n"
        "assert sys.modules.get('secrets') is not channel._secrets  # removed too\n"
    )


@pytest.mark.parametrize("package", list(_UNEXECUTED))
def test_an_imported_package_is_used_as_it_is(package):
    module, _, same, _ = _UNEXECUTED[package]
    _fresh_interpreter(
        f"import sys, {package}\n"
        f"package = sys.modules[{package!r}]\n"
        "from skfb import channel, codec\n"
        f"assert sys.modules[{package!r}] is package\n"
        f"assert channel._load_unexecuted({package!r}, {module!r}) is package\n"
        f"assert {same}\n"
    )


def test_a_seed_sequence_given_no_entropy_draws_it_from_the_os():
    # the stand-in secrets' randbits is the one secrets.py binds
    _fresh_interpreter(
        "from skfb import channel\n"
        "a, b = (channel.SeedSequence().entropy for _ in range(2))\n"
        "assert isinstance(a, int) and a.bit_length() > 64 and a != b, (a, b)\n"
    )


def test_a_later_import_of_secrets_loads_the_real_module():
    _fresh_interpreter(
        "import sys, skfb.cli\n"
        "from skfb import channel\n"
        "assert 'secrets' not in sys.modules\n"
        "import secrets, numpy.random\n"
        "assert secrets is not channel._secrets and len(secrets.token_hex(8)) == 16\n"
        "assert numpy.random.SeedSequence is channel.SeedSequence\n"
    )


def test_an_imported_secrets_module_is_used_as_it_is():
    _fresh_interpreter(
        "import secrets, sys\n"
        "from skfb import channel\n"
        "assert 'numpy.random' not in sys.modules  # still the direct load\n"
        "assert sys.modules['secrets'] is secrets\n"
        "assert sys.modules['numpy.random.bit_generator'].randbits is secrets.randbits\n"
    )


def test_no_command_imports_numpy_random_scipy_special_or_secrets():
    # every subcommand and the symbol-power measurement, in one process that
    # has imported none of them: a later np.random.<name> or
    # scipy.special.<name> on any of these paths would import the package,
    # and with numpy.random's, secrets and OpenSSL (hashlib, _hashlib)
    root = pathlib.Path(__file__).resolve().parent.parent
    reference = root / "data" / "deepcode_reference_sample.csv"
    runs = [
        ["ber", "--k", "2", "--snr-db", "3", "--feedback-snr-db", "20", "--trials", "20"],
        ["sweep-k", "--k-min", "1", "--k-max", "2", "--trials", "20"],
        ["sweep-precision", "--k-min", "1", "--k-max", "2", "--precisions", "8,64",
         "--reference", str(reference), "--trials", "20"],
        ["sweep-feedback", "--k-max", "2", "--feedback-snr-list", "20", "--trials", "20"],
        ["oracle", "--k", "2"],
        ["optimize-gamma", "--k", "2", "--gamma-grid", "0.5,1"],
    ]
    _fresh_interpreter(
        "import contextlib, io, sys\n"
        "from skfb.cli import main\n"
        "from skfb.core import SkConfig\n"
        "from skfb.engine import measure_symbol_power\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "measure_symbol_power(SkConfig(k=2, n_total=6, feedback_snr_db=20.0), 20, [1, 5])\n"
        "for name in ('numpy.random', 'numpy.random.mtrand', 'scipy.special',\n"
        "             'secrets', 'hmac', 'hashlib', '_hashlib'):\n"
        "    assert name not in sys.modules, name + ' was imported'\n"
    )
