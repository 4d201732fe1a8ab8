"""Golden parser corpus: exact serialized text, param_hash and errors.

Each valid document pins the SHA-256 of its `serialize_config` text and its
`param_hash`, so a snapshot written under it still resumes.  Each invalid
document pins every (line, message) pair that `parse_config` reports.  The
literals were computed with the hand-written parser that preceded the
table-driven one; a change to any of them is a change of behaviour.
"""

import hashlib

import pytest

import raftsim.harness as h
import test_acceptance
import test_cli
import test_config_io
import test_experiments
import test_steady

BASE = """
[run]
system = reduced
[geometry]
kind = circle
n = 16
[exchange]
kind = reaction
[stepper]
dt = 1e-3
[initial]
kind = constant
[schedule]
t_final = 0.01
"""

DISK = BASE.replace("system = reduced", "system = full").replace(
    "kind = circle\nn = 16", "kind = disk\nnr = 8\nntheta = 16")

TORUS = BASE.replace("kind = circle\nn = 16",
                     "kind = torus\nnx = 16\nny = 24\nlx = 3.5\nly = 7.25")

RANDOM = BASE.replace("kind = constant", """kind = random
seed = 11
phi_mean = -0.2
amplitude = 0.3
v_amplitude = 0.05
cutoff = 5
v0 = 0.4
u0 = 2""")

EVERY_KEY = """# every key of every section, in mixed case and with comments
[RUN]
System = reduced   # trailing comment
[geometry]
kind = torus
nx = 32
ny = 16
lx = 6.25
ly = 3
[potential]
kind = regularized
theta = 0.8
theta0 = 2.5
r0 = 0.4
kappa = 1e-3
[exchange]
kind = cutoff_reaction
b1 = 0.5
b2 = 0.25
h0 = 3
[params]
diffusion = 10
delta = 0.5
omega_measure = 2.5
[stepper]
dt = 2e-3
newton_tol = 1e-9
newton_max_iters = 20
dt_min = 1e-5
damping = 0.25
dealias = yes
gmres_tol = 1e-11
kappa_fallback = 1e-4
[initial]
kind = random
phi_mean = 0.1
amplitude = 0.2
v_amplitude = 0.01
cutoff = 3
seed = 0
v0 = 0.6
u0 = 1.5
path = unused.snap
[schedule]
t_final = 0.02
sample_stride = 5
checkpoint_stride = 2
[experiment]
kind = large_d
d_list = 10, 100,1e3
kappa_list = 1e-2
scales = 1, 3
t_star = 0.01
[output]
directory = runs/every key
"""

VALID = {
    # every config document of the test suite
    "config_io_minimal": (test_config_io.MINIMAL_REDUCED, ()),
    "cli_reduced": (test_cli.REDUCED, ()),
    "experiments_tiny_full": (test_experiments.TINY_FULL, ()),
    "experiments_tiny_reduced": (test_experiments.TINY_REDUCED, ()),
    "steady_panel": (test_steady.PANEL, ()),
    "acceptance_energy": (test_acceptance.ENERGY_CFG, ()),
    "acceptance_large_d": (test_acceptance.LARGE_D_CFG, ()),
    "acceptance_absorbing": (test_acceptance.ABSORBING_CFG, ()),
    "acceptance_converge": (test_acceptance.CONVERGE_CFG, ()),
    "acceptance_kappa": (test_acceptance.KAPPA_CFG, ()),
    # one document per kind
    "circle": (BASE, ()),
    "torus": (TORUS, ()),
    "disk": (DISK, ()),
    "potential_logarithmic": (BASE + "[potential]\nkind = logarithmic\n"
                              "theta = 0.75\ntheta0 = 3\nr0 = 0.25\n", ()),
    "potential_polynomial": (BASE + "[potential]\nkind = polynomial\n", ()),
    "potential_regularized": (BASE + "[potential]\nkind = regularized\n"
                              "kappa = 1e-4\n", ()),
    "exchange_equilibrium": (BASE.replace("kind = reaction",
                                          "kind = equilibrium\na0 = 2\n"
                                          "alpha = 1.5"), ()),
    "exchange_reaction": (BASE.replace("kind = reaction",
                                       "kind = reaction\nb1 = 0.2\nb2 = 0.3"),
                          ()),
    "exchange_cutoff_reaction": (BASE.replace("kind = reaction",
                                              "kind = cutoff_reaction\n"
                                              "b1 = 2\nh0 = 0.5"), ()),
    "initial_constant": (BASE.replace("kind = constant",
                                      "kind = constant\nphi_mean = -0.25\n"
                                      "v0 = 0.3\nu0 = 2"), ()),
    "initial_random": (RANDOM, ()),
    "initial_file": (BASE.replace("kind = constant",
                                  "kind = file\npath = start.snap"), ()),
    "experiment_large_d": (DISK + "[experiment]\nkind = large_d\n"
                           "d_list = 10, 100\n", ()),
    "experiment_kappa": (BASE + "[experiment]\nkind = kappa\n"
                         "kappa_list = 1e-2, 1e-3\n", ()),
    "experiment_equilibrium_convergence": (
        BASE + "[experiment]\nkind = equilibrium_convergence\n", ()),
    "experiment_absorbing": (BASE + "[experiment]\nkind = absorbing\n"
                             "scales = 1, 3\nt_star = 0.005\n", ()),
    "every_key": (EVERY_KEY, ()),
    # keys the kind does not use are checked but neither kept nor written
    "unused_keys": (BASE + "[geometry]\nnx = 64\nlx = 1\n[potential]\n"
                    "kappa = 0.3\n[exchange]\na0 = 5\n", ()),
    "empty_lists": (BASE + "[experiment]\nd_list =\nscales = ,\n", ()),
    "overrides": (BASE, (("stepper.dt", "5e-4"), ("Params.Delta", "2"),
                         ("initial.kind", "random"), ("initial.seed", "3"),
                         ("output.directory", "elsewhere"))),
}

INVALID = {
    # tokenizer and overrides
    "unknown_section": (BASE + "[bogus]\n", ()),
    "no_assignment": (BASE + "[stepper]\njust words\n", ()),
    "key_outside_section": ("dt = 1\n" + BASE, ()),
    "override_not_dotted": (BASE, (("dt", "1"),)),
    "override_unknown_key": (BASE, (("stepper.warp", "1"),
                                    ("nowhere.dt", "1"))),
    # keys and values
    "unknown_key": (BASE + "[stepper]\nwarp = 9\n", ()),
    "missing_required": ("[geometry]\nkind = circle\nn = 16\n", ()),
    "bad_values": (BASE + "[stepper]\nnewton_max_iters = 1.5\n"
                   "dealias = maybe\n[params]\ndelta = fast\n", ()),
    "bad_required_value": (BASE.replace("dt = 1e-3", "dt = fast"), ()),
    # [run] and [params]
    "system": (BASE.replace("system = reduced", "system = sideways"), ()),
    "diffusion": (BASE + "[params]\ndiffusion = 0\n", ()),
    "delta": (BASE + "[params]\ndelta = -1\n", ()),
    "omega_measure": (BASE + "[params]\nomega_measure = -3\n", ()),
    # [geometry]
    "geometry_kind": (BASE.replace("kind = circle\nn = 16", "kind = sphere"),
                      ()),
    "circle_needs_n": (BASE.replace("n = 16\n", ""), ()),
    "torus_needs_nx_ny": (BASE.replace("kind = circle\nn = 16",
                                       "kind = torus\nnx = 16"), ()),
    "disk_needs_nr_ntheta": (DISK.replace("nr = 8\n", ""), ()),
    "full_needs_disk": (BASE.replace("system = reduced", "system = full"),
                        ()),
    "reduced_not_disk": (DISK.replace("system = full", "system = reduced"),
                         ()),
    "node_counts": (TORUS.replace("nx = 16\nny = 24", "nx = 6\nny = 17"),
                    ()),
    # [potential]
    "potential_kind": (BASE + "[potential]\nkind = quartic\n", ()),
    "regularized_needs_kappa": (BASE + "[potential]\nkind = regularized\n",
                                ()),
    "invalid_potential": (BASE + "[potential]\ntheta = 3\ntheta0 = 2\n", ()),
    "invalid_potential_kappa": (BASE + "[potential]\nkind = regularized\n"
                                "kappa = 0.7\n", ()),
    # [exchange]
    "exchange_kind": (BASE.replace("kind = reaction", "kind = binding"), ()),
    "invalid_exchange": (BASE.replace("kind = reaction",
                                      "kind = reaction\nb2 = 0"), ()),
    "invalid_equilibrium": (BASE.replace("kind = reaction",
                                         "kind = equilibrium\nalpha = -1"),
                            ()),
    "invalid_cutoff": (BASE.replace("kind = reaction",
                                    "kind = cutoff_reaction\nh0 = -1"), ()),
    # [stepper]
    "invalid_stepper": (BASE + "[stepper]\ndamping = 1.5\n", ()),
    "invalid_stepper_dt_min": (BASE + "[stepper]\ndt_min = 1\n", ()),
    # [initial]
    "initial_kind": (BASE.replace("kind = constant", "kind = smooth"), ()),
    "random_needs_seed": (BASE.replace("kind = constant", "kind = random"),
                          ()),
    "random_amplitude": (RANDOM.replace("amplitude = 0.3", "amplitude = 0.8"),
                         ()),
    "constant_phi_mean": (BASE.replace("kind = constant",
                                       "kind = constant\nphi_mean = 1.5"), ()),
    "file_needs_path": (BASE.replace("kind = constant", "kind = file"), ()),
    # [schedule] and [experiment]
    "invalid_schedule": (BASE + "[schedule]\nsample_stride = 0\n", ()),
    "t_final_multiple": (BASE.replace("t_final = 0.01", "t_final = 0.0105"),
                         ()),
    "experiment_kind": (BASE + "[experiment]\nkind = sideways\n", ()),
    # several problems at once
    "all_collected": (test_config_io.MINIMAL_REDUCED.replace(
        "system = reduced", "system = sideways").replace(
        "ny = 32", "ny = 31").replace("seed = 7\n", "").replace(
        "t_final = 0.01", "t_final = 0.0105") + "[bogus]\nx = 1\n", ()),
}

VALID_GOLDEN = {
    'acceptance_absorbing': (
        'e18b1d4016aa76780024b6e923c33f9ef9a9bcdfe57287157fc3947470e8518e',
        'a598a5553f68aeb4c533c27546f1afe09161875576cfeea2748a48d8b4b7408b'),
    'acceptance_converge': (
        'be53658e095e3c295577b7bfb4e9703b83b102b4bad1741271024fa921249c10',
        '43cc89e049df924790a638e3f0a8f02c0b63906b0c1e79a45afaac0c9509a380'),
    'acceptance_energy': (
        '3e25c9be793d8434a92a1d0cfd56757a48c89fdabc7fa7254f01e3b90840ff9d',
        '17c5dd66f607456ffc7b963631849a0b8756aa6a6a8a98676c41cb98f6402e88'),
    'acceptance_kappa': (
        'ddc397a85f6915bbb8a0ab6530282ca8bc81c85fb6af2da8ccab04cb89270b5e',
        'c0e149ee52c90138cfc13acd2277d29f6befc69d67dfce8e021230412be14b38'),
    'acceptance_large_d': (
        'b58bab8f168bbc9b28f50e8c38593156d7c9c653c30ee26ab2696d4d26d30323',
        '8580c9edb761a23d17a81b775947f008ee7747f1204a4eae843f48963057dce7'),
    'circle': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '3d5d481293e3f5526ac1766019766b701f469e6982df59c9d54d6d8ef771ec0b'),
    'cli_reduced': (
        '2599416eef7e0a93360c745e4d9da9afeb881198817fe8c12a85e228bbbfe53e',
        '8a0f211c6f743abdeb983cbbcd1152069cb48f039cbbed0e9f68064018c860d9'),
    'config_io_minimal': (
        'ed4a93b74c65c1ae686883038d81e0c0e085eab0d9cec37b28ba7648bf1f45b4',
        '0c93d947f96cb5905b8739e4eaef1c96a4e83e41eab2ad54f5d5650874414b44'),
    'disk': (
        '57e31c7d3cb4358661acb0c20336afbf13bdc9c9d2043cfb82945db2a8638c88',
        'aa1893317392fec485ed671d706a3004b922e52e4e21a36c47de6cb89e2f8c00'),
    'empty_lists': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '3d5d481293e3f5526ac1766019766b701f469e6982df59c9d54d6d8ef771ec0b'),
    'every_key': (
        'e3a8271a13da56d1903a1294072e2fc2aefb244b258db86c26a39b4f675ae2f8',
        '48b474b7626728e73787f1a6e52a25fed1f73455459163545869f55edd3d0995'),
    'exchange_cutoff_reaction': (
        '7b721606753a907dc1a271a3f3727778c11a9c6efe1471b5d82b1f871a561e1d',
        '02bce4a2b1e573a6415832acd0f7e9f502ba9cf3e3579b05d95e6a8fdae57c9f'),
    'exchange_equilibrium': (
        'bac9cc1c87c3ef269311553503c45e1730c9d4efeeee0612b3c1ea4e8dcf98b9',
        'e544d9336ba3feb481c935b214c234eb0e5bbfed8f7806fd34d2ef10722de0a0'),
    'exchange_reaction': (
        'd111639f121d8b3c26eb185d93bb4f2a35446eb646a4ec04520ceb47dc59ed44',
        '1227f0d7bbcc483ef04fe27b3f35d60cce1b69479b42c2788ec67c52c67e66ef'),
    'experiment_absorbing': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '023544b46b3b7eca3fd6417d2c4fa43558c823a6f3776a596906f2afa02759b5'),
    'experiment_equilibrium_convergence': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        'c5393c2ebd0897138cc40a5cce3f860df7b3357b7759a98d0decc5a34a79e7b4'),
    'experiment_kappa': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '920c5a4d29ec02c4ea3290d5405bcb2de4e39961f98428ccfdf3d0240d27a1fe'),
    'experiment_large_d': (
        '57e31c7d3cb4358661acb0c20336afbf13bdc9c9d2043cfb82945db2a8638c88',
        'eaab29b51acaa25476abd6153a479afd59c05cc1a8c89c3c4df29010f1119410'),
    'experiments_tiny_full': (
        '9787a0cecf631d77fa8d4fe50c2df008aa8ea8ddbef8fb6c0b2dc01df0d77344',
        '7ef04866dcd214126e9577337c1facf96c0dba6693cccd15769cbba6cc2f4a27'),
    'experiments_tiny_reduced': (
        '3865d739acc4e9bf0b734745f8a86025f7680ab90cbe09b2957b13588eb791dc',
        '8177f9ee28330eb9c3a06855f3537316b7f049a316fa6152aa0c7ef45b013d02'),
    'initial_constant': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '936ea97abd9c0b31c1e8cc300c2291f046d756385355cbe307dcca0991101741'),
    'initial_file': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        'a8ada0d1eb816567da004657160c2a8810313dd4931fbdaf414ec969bf3ebdb8'),
    'initial_random': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '3f848101673049f0e4915e1d6db62698eac9874ac5a1bd8f22fc40a8ebb8e2b7'),
    'overrides': (
        '2f973bfd7343866b73ad6ceb0ffff0e0fe259256ff01bb9ba4979709b38b14c7',
        '2efa271517940db2b25695910cb5784d09d84e197b14d152f2a34f6b49ecef21'),
    'potential_logarithmic': (
        'fa389abdcf6e928504eb1676ebc6d0ec3e52e40b74355a0b9d13209f473c2612',
        '218cd0659e34e5c5d9eb898f09c522def4ef0377c121ac3df2dc5a7988c848e2'),
    'potential_polynomial': (
        'd8ec30bfdbcee6ee7e10ede354d2c5de7be0794b598fb567724e02282c81f866',
        '2ec6d558645f1fa66e44e93f07f8b3a30972db1ab4095010336f62fb8277aa75'),
    'potential_regularized': (
        '82344295df5455b9d04e863ecad9e51ca7984405a716d3f08bb76311afe70ee3',
        'bb4bfd4770e6a16228f8f91cd8c2ac8334a65d815df06a0921266608fb290cbe'),
    'steady_panel': (
        '635ddd1c87c546dd184d77bffd8947d04a13b4580dd645fe43b1501a958d4faa',
        '8f5aee2e4959c95faf287d3b00f1ba9ee9d101e5c49dc77d04218feefd582270'),
    'torus': (
        'a501d804139b9ef8fd54e87ff624150c32937c5e1471e2acc21bb9e069ee1393',
        '325127148e0d86bed72fe6e76cb9f1420912db0429843841bb32fc7ecb451058'),
    'unused_keys': (
        '6236ac7549219aaa6f6c0958b2daee0cea010b9fc040e08cb447751fe2448799',
        '3d5d481293e3f5526ac1766019766b701f469e6982df59c9d54d6d8ef771ec0b'),
}

INVALID_GOLDEN = {
    'all_collected': [
        (21, 't_final must be an integer multiple of stepper.dt'),
        (22, 'unknown section [bogus]'),
        (23, "key 'x' outside any section"),
        (3, "run.system must be full or reduced, got 'sideways'"),
        (8, 'geometry.ny must be even and >= 8'),
        (None, 'random initial data needs initial.seed (reproducibility)'),
    ],
    'bad_required_value': [
        (10, "bad value for stepper.dt: 'fast'"),
    ],
    'bad_values': [
        (16, "bad value for stepper.newton_max_iters: '1.5'"),
        (17, "bad value for stepper.dealias: 'maybe'"),
        (19, "bad value for params.delta: 'fast'"),
    ],
    'circle_needs_n': [
        (None, 'circle geometry needs geometry.n'),
    ],
    'constant_phi_mean': [
        (None, 'initial phi_mean must lie in [-1, 1]'),
    ],
    'delta': [
        (16, 'delta must be positive (affinity strength)'),
    ],
    'diffusion': [
        (16, 'diffusion coefficient must be positive'),
    ],
    'disk_needs_nr_ntheta': [
        (None, 'disk geometry needs geometry.nr and geometry.ntheta'),
    ],
    'exchange_kind': [
        (8, "exchange.kind must be equilibrium, reaction or cutoff_reaction, got 'binding'"),
    ],
    'experiment_kind': [
        (16, "unknown experiment kind 'sideways'"),
    ],
    'file_needs_path': [
        (None, 'file initial data needs initial.path'),
    ],
    'full_needs_disk': [
        (5, 'the full system needs disk geometry (bulk + boundary circle)'),
    ],
    'geometry_kind': [
        (5, "geometry.kind must be circle, torus or disk, got 'sphere'"),
    ],
    'initial_kind': [
        (12, 'initial.kind must be constant, random or file'),
    ],
    'invalid_cutoff': [
        (None, 'invalid exchange law: cutoff reaction needs b1, b2, h0 all positive'),
    ],
    'invalid_equilibrium': [
        (None, 'invalid exchange law: decay exponent must be >= 0, got -1.0'),
    ],
    'invalid_exchange': [
        (None, 'invalid exchange law: reaction rates b1, b2 must be positive'),
    ],
    'invalid_potential': [
        (None, 'invalid potential: logarithmic well needs 0 < theta < theta0, got theta=3.0, theta0=2.0'),
    ],
    'invalid_potential_kappa': [
        (None, 'invalid potential: regularized well needs 0 < kappa < r0, got kappa=0.7'),
    ],
    'invalid_schedule': [
        (None, 'invalid schedule: sample_stride must be >= 1'),
    ],
    'invalid_stepper': [
        (None, 'invalid stepper config: damping factor must lie in (0, 1)'),
    ],
    'invalid_stepper_dt_min': [
        (None, 'invalid stepper config: dt_min cannot exceed dt'),
    ],
    'key_outside_section': [
        (1, "key 'dt' outside any section"),
    ],
    'missing_required': [
        (None, "missing required key 'dt' in [stepper]"),
        (None, "missing required key 'kind' in [exchange]"),
        (None, "missing required key 'kind' in [initial]"),
        (None, "missing required key 'system' in [run]"),
        (None, "missing required key 't_final' in [schedule]"),
    ],
    'no_assignment': [
        (16, "expected 'key = value', got 'just words'"),
    ],
    'node_counts': [
        (6, 'geometry.nx must be even and >= 8'),
        (7, 'geometry.ny must be even and >= 8'),
    ],
    'omega_measure': [
        (16, 'omega_measure must be positive'),
    ],
    'override_not_dotted': [
        (None, "override 'dt' is not section.key"),
    ],
    'override_unknown_key': [
        (None, "override targets unknown key 'nowhere.dt'"),
        (None, "override targets unknown key 'stepper.warp'"),
    ],
    'potential_kind': [
        (16, "unknown potential kind 'quartic'"),
    ],
    'random_amplitude': [
        (None, 'initial |phi_mean| + amplitude must be < 1'),
    ],
    'random_needs_seed': [
        (None, 'random initial data needs initial.seed (reproducibility)'),
    ],
    'reduced_not_disk': [
        (5, 'the reduced system lives on a circle or torus'),
    ],
    'regularized_needs_kappa': [
        (None, 'regularized potential needs potential.kappa'),
    ],
    'system': [
        (3, "run.system must be full or reduced, got 'sideways'"),
    ],
    't_final_multiple': [
        (14, 't_final must be an integer multiple of stepper.dt'),
    ],
    'torus_needs_nx_ny': [
        (None, 'torus geometry needs geometry.nx and geometry.ny'),
    ],
    'unknown_key': [
        (16, "unknown key 'warp' in [stepper]"),
    ],
    'unknown_section': [
        (15, 'unknown section [bogus]'),
    ],
}


def _sorted(errors):
    return sorted(errors, key=repr)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_document_text_and_hash(name):
    text, overrides = VALID[name]
    cfg = h.parse_config(text, overrides)
    digest = hashlib.sha256(h.serialize_config(cfg).encode()).hexdigest()
    assert (h.param_hash(cfg), digest) == VALID_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_document_errors(name):
    text, overrides = INVALID[name]
    with pytest.raises(h.ConfigError) as info:
        h.parse_config(text, overrides)
    assert _sorted(info.value.errors) == _sorted(INVALID_GOLDEN[name])
