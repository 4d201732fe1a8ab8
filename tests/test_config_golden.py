"""Golden parser corpus: exact serialized text, param_hash and errors.

Each valid document pins the SHA-256 of its `serialize_config` text and its
`param_hash`, so a snapshot written under it still resumes.  Each invalid
document pins every (line, message) pair that `parse_config` reports.  The
literals were first computed with the hand-written parser that preceded the
table-driven one; a change to any of them is a change of behaviour.

They were recomputed once, when the stepper's `damping`, `dealias` and
`gmres_tol` keys were retired: each document's new text is its old text
minus exactly those three lines, so a snapshot written before then carries
a `param_hash` that no longer matches and `--resume` refuses it.
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
        'bb0704e05d50aebe4a7e241343e8adfcf7a336644649a8de3b8de0e04393e835',
        'e243a339af8a5d9d5fee66297f3c1bf106969143d5212f0166bf9c297552f48d'),
    'acceptance_converge': (
        '9687ea9b4b0eb4d8c9919ed5eee38cbf9990aae4db262f8a4b3419c3e6673ddc',
        '42d9f31a5b2304f048a60564c7b0d4177b3f89f33415156e2dcfd8418e34369b'),
    'acceptance_energy': (
        'b667bbaa0501a3b5832632cc62bed28c5da3fc331e3446f3dcb1e8059eb919d4',
        '5b4fdf9eeb2edfb0aba677e31c4c5f294d36be4aa2ea0aa78df88388dd4d3c6a'),
    'acceptance_kappa': (
        'aa0b10616092589ccff0bedb7f6048bbd173896409fd996c091bd736dc931a8f',
        'f0bd880852752e6f6b1489dcfa78cabb31b7b2a79f268965f07ba7fd8ef094bc'),
    'acceptance_large_d': (
        '7386a2cb95abf636a7af809ed8e30ff4c9dc8343e05250e4e04484b78280caad',
        'be70eea2c7306ebcec61d293185783e3879af67941f04942a33660bc8dbfccaf'),
    'circle': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '4b38a187692614ed0ebbd7abc33c33ddc2c3662d8732999174b8eff9f1bb853c'),
    'cli_reduced': (
        'a16ee88d0c11b9d8b2ff26eb6e9e7df7a70d2ffc37b8e2267ab7d87d1622397c',
        '08d011a429d35d4d9833c6d9387d5fb2eba66afdd4af1aecc80bb099a1b3f11f'),
    'config_io_minimal': (
        '399b4cfe192eb243d04f4273dcfefaa4890cb3a97f91bc7589f1d4fcb9a55ee9',
        'b20f6f046e80893409954e721b3f0265ce244a8ad224faf0b8627aec0dadc9f9'),
    'disk': (
        '2b4bc41d90075fcf204741619f25de5c67533266e97fab46f173bddcd11af730',
        '46ecf660b06aa16f7dd8d0d1fd4cdd0c2e6dba7435ca385c33bb45d489ccc44b'),
    'empty_lists': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '4b38a187692614ed0ebbd7abc33c33ddc2c3662d8732999174b8eff9f1bb853c'),
    'every_key': (
        '34eaf8513a5f8b24b73ee6e20efb0f2bf2f79e9ccda89b68725b297c015f92c3',
        '6787eaf54e0b93baa51f3f91428aea9760ee48468beebe73794783412ed6035c'),
    'exchange_cutoff_reaction': (
        '20b36c8732b3e629366d2644810f5f2fb9415b6e5f90e28e4cbd6d3453dd5669',
        '02b192ca8372726a02d2a822c34ab2660c52e05713ec9ca731054d8434fe8347'),
    'exchange_equilibrium': (
        'bf5a27ab92a06a6d0d29f7e787c5ef1a0d81a3409cbfa577f0ec035999848d19',
        '405f41699b89a10338a847a99399dd4b09c6c315d2a7e83f3f39cdeaf42966cc'),
    'exchange_reaction': (
        'e6c572a74c4f158f85e53622ba3dd93e0dec985a570aa453236f1f4eb969dc9e',
        '084b5873d02b2b6444364ca47eeeab0228c52c2b5cf729dd638fe56a7796dded'),
    'experiment_absorbing': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '91fea884c217096d5b17af82c3dcee2829adb68bc9c8fc1e6ac6b7636369ba39'),
    'experiment_equilibrium_convergence': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '00153c90caca3266d198bf9a51833775211e01e9e003324d8a7cb7217a4cde0d'),
    'experiment_kappa': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        'c9821b4fe9e1ab9ea6b3c46463fa5eb0806cf12ac7ed9e539cc8e4e11f4b555e'),
    'experiment_large_d': (
        '2b4bc41d90075fcf204741619f25de5c67533266e97fab46f173bddcd11af730',
        '016721fc62fded84a71afc3a51b92c18d616c19a647e23740308c1a7e35d71f1'),
    'experiments_tiny_full': (
        'e3c0d3490b8fa3626c65e0cb1ff9219157f75d8cff70c6abb6f68ee095d2693d',
        '7a58091d84005c284729cfe991cec356c5c40430290428b3c7e69ed672dc9fc9'),
    'experiments_tiny_reduced': (
        '3012aa32326612454cad1fdb29c235d286728d26f8e7320eeba159e1dcab6aa1',
        '6592a189acaa28d4411ee3f0539bc4875cfc498f5c84718813725364da26a5e5'),
    'initial_constant': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '65733e165c4085ca93ad0051b3e0561fac77f3193b121b1586719dd9cd0be7ba'),
    'initial_file': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        'f016bc32b073fc3f7e2b9c25822be9c287fbfbc33ba6e6034939cedf3d8a7c25'),
    'initial_random': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '38773caebbcb00772f0ae240c2a8d850e41456d84ba70cc23e7f79089305bd27'),
    'overrides': (
        'e9024df132add7b74a5b9b8d895c2fbfd59f22ffe7f798421e62ae64ff51527a',
        'ad012b66e7884e4c5121c6b8190bd57f3bfdb31e563c0a2d5ca28b3deebb1493'),
    'potential_logarithmic': (
        '31e1ba381e4dcfa44f75dd8cf83686b3b934b36e772fc456b2a0e4f01ed46af9',
        'b3636e5b533122973f04b961b7fb4fe4084b8a247fb507b53c97ed0f75cd5d8d'),
    'potential_polynomial': (
        '6bb84152af4d74806af3d75be548ec88054e6eac17fa0a2661e8633d1a16c9f6',
        'da9e9523fad2b0d304275ec89b272bab9c58001e7e1d1e7013fe1ecb347da005'),
    'potential_regularized': (
        '637f60a2de452480644217b0e4bca504e27ed36d394f48895ad9dd86eb47098c',
        '31d4cbb6657580309443cabc2d02917c9f3a22e3567acd24ea10c4cbd15ec389'),
    'steady_panel': (
        '38a7928b4d2a1fa0dea4c581b259a0130b3958c5a2bbf63cd091d56d4af34c91',
        '1c6d96d3c7f1d9cd887bbac2eeeefa32f7f1fd5a08f84cea3220d710ce9ddd90'),
    'torus': (
        '31434c00059d489b1e9a39ecea1607f0add3beefce806b990637b44575a1c11f',
        'ad5a612279af37974c3777151f4317da70c10f168ca7bf3bdd5bba895818f5b1'),
    'unused_keys': (
        'fcb5b6509fc16f50c17d5655a3cd135bdb1c935823c7826b524852c17df1d262',
        '4b38a187692614ed0ebbd7abc33c33ddc2c3662d8732999174b8eff9f1bb853c'),
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
        (17, "unknown key 'dealias' in [stepper]"),
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
        (16, "unknown key 'damping' in [stepper]"),
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
