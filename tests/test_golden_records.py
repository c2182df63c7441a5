"""Golden digests of the run records.

Every architecture (MLP, LSTM, BiLSTM, CNN1D) runs every strategy but
cumulative (replay without a budget) once on a tiny three-site cohort, and the
sha256 of its ``run_00.jsonl`` without the header line is compared with a
pinned value. The header is left out because it carries the config
fingerprint, which hashes the profile's path.

OpenBLAS picks its kernels by CPU core, and the records' last bits follow
them, so the pins are keyed by the core name that numpy's bundled OpenBLAS
reports. On a core without pins, or a BLAS that does not report one, the test
checks that two in-process runs give equal bytes and skips with the core name
and the digests to pin.
"""

import ctypes
import hashlib
import json

import pytest

from seqcl import harness
from seqcl.datagen import domain_offset_vectors

ARCHITECTURES = {
    "mlp": {"kind": "mlp", "n_layers": 1, "hidden_dim": 8},
    "lstm": {"kind": "lstm", "n_layers": 1, "hidden_dim": 8},
    "bilstm": {"kind": "lstm", "n_layers": 1, "hidden_dim": 8, "bidirectional": True},
    "cnn1d": {"kind": "cnn1d", "n_layers": 1, "hidden_dim": 8},
}
STRATEGIES = ("naive", "ewc", "online_ewc", "si", "lwf", "replay", "gdumb", "gem", "agem")

PINNED = {
    "SkylakeX": {
        "bilstm-agem": "f103424cd99c56e9f34041534fee17c9efc6a4fe6ce8c77ae47489939d416816",
        "bilstm-ewc": "8b5843d85ec0b0bccb4c7ac06ad7b41f0a72a397fdc426faeefe9d0be6162d3d",
        "bilstm-gdumb": "86a16b73833febccb54bab600d34e7fcd7a7523a13bb441078a22d708731f6e1",
        "bilstm-gem": "036607de65f315a558a0b78c9fbdf5e426f8ade61b5185209a471c993635ea29",
        "bilstm-lwf": "7b2c81441b2e38601c72c7a6450c9501d9ad3036dab35eabf686ac40a18a1210",
        "bilstm-naive": "a1816a474b7a9be935161fe2df773e8ea8d98b017ed821415c82e76a489e7244",
        "bilstm-online_ewc": "fb6728348ba16dd7b3eef7503bca6ff754b4d18d37aeb1a153e7758df2883ebc",
        "bilstm-replay": "c8e0f27c5167e261b27a9d73ef61d7517d8cae174b64070991508239373675e7",
        "bilstm-si": "acafd2a2c4d8e86b02ec2b08e795f74ce9e15f4b8644d6184b3d42d5131f4e1a",
        "cnn1d-agem": "766db11bebd68041921d1ee4b5b387ad0b24cd1f376728f49ea1a99a1d10189a",
        "cnn1d-ewc": "e5f21e66de75a1d4004cf2c85d84c2023541c49d9530f4d16284d735ca13c363",
        "cnn1d-gdumb": "38192bb837435c7f8b3daa0d18ec31ce569dc6e53872220a42d22bce31e41c20",
        "cnn1d-gem": "be46957b945fb2a811d67ecc8fbb3ac8323176b80d46b75a52e7ba9bd03af5ce",
        "cnn1d-lwf": "fa8fe220b8c692012c9473f927743eac4074c36f8473e10bde7942b4eb54d054",
        "cnn1d-naive": "7df1fe34a772a60072c2c46c573d05a4b42c73311461039ba2cab2699efba0b1",
        "cnn1d-online_ewc": "249f2c69087e68ed7ee1f5866e8f38cd32cace03b9eb14323b6511d29f069559",
        "cnn1d-replay": "b665257a776d0d76c5bc2c1789b6651c9c01e52247ba660f2e6edb7b92d70f19",
        "cnn1d-si": "be219c2bdf5265f5cb814876965ea65a81a0acb8e3f498a68d9812db00a0011c",
        "lstm-agem": "a3d34514abe88d68190cde466dc8f79372f6ede20883677fbed4a67eff042515",
        "lstm-ewc": "cb14cccbb1cf169643366ea8fc666963471ec328c7909bf0bcb5bb560f321af7",
        "lstm-gdumb": "ef59f81693fe5bc3e86c3fc224d6d18264b92525381612d98bdb008fb85f9d68",
        "lstm-gem": "ce9ab29c5f4486f3508e73f6debe7787a10764d211d8d4c98d17e12d3400cf52",
        "lstm-lwf": "a813af9b7c5baf4fefd437fb5e3de3bd2a92ddc83dce02b8ecd569919aea2130",
        "lstm-naive": "5f80a73903e1127447ea8cf103f8b00ac5712cb6f5d29484edb4f29dce655c04",
        "lstm-online_ewc": "4e2491bcb91fca4098586a1dba9f44813cb8c1c15eef6c12a7b383586b72ff2c",
        "lstm-replay": "261888212247e6472943e67aec5cd55269c947d727fa712b5d11af36f8e807c4",
        "lstm-si": "1104c910ce6f2cd04596e78db74a9c373b899abcd931b83a4854090d9d3fac97",
        "mlp-agem": "cf31914fbab46f355ed770e32c02c0e988331d552e7f844f70c7aa693327aecf",
        "mlp-ewc": "1cdc900c2c9db0aecefa012ac4d689654a584328466492c6c3c65e68e4bdef25",
        "mlp-gdumb": "1ccbe4561fa9b5cf84e262d2397c75c639fe77e261d701cf476c8b2de120c357",
        "mlp-gem": "fc5ea638d6f7b72771291a3148e45d1348b85e2340e45eb4634c9bd72fa0b383",
        "mlp-lwf": "944ac2692e8ea25ce06296289faccb8fe338db8d79681934c4270b802c5d7989",
        "mlp-naive": "76741d055ffe666e88263ba3329bb7463dcf77116717cf7544835a8efd9fd081",
        "mlp-online_ewc": "9ededa3862a03233d10301238e278611f2dfe4b314ca6eccb4eeef62943529d8",
        "mlp-replay": "59cfee89c0efeb72f5c801897ec631e7acb62b5c0b660e95635b83c23a58c693",
        "mlp-si": "ab3272229451225057433fb0c35c333b6fc8fe2434e3e66cbef7e18dfbd116a5",
    },
}


def openblas_core():
    """The core name numpy's bundled OpenBLAS runs on, or None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def tiny_profile():
    return {
        "n_patients": 240,
        "n_timevarying": 3,
        "n_static": 1,
        "seq_len": 6,
        "domains": {"site": [
            {"name": f"site{j:02d}", "mean_offset": offset.tolist(), "prevalence": 0.3}
            for j, offset in enumerate(domain_offset_vectors(3, 3, 1, 3.5))
        ]},
    }


def record_digests(root):
    """{"<architecture>-<strategy>": sha256 of the records} for every pair."""
    root.mkdir(parents=True)
    profile = root / "profile.json"
    profile.write_text(json.dumps(tiny_profile()))
    digests = {}
    for arch_name, architecture in ARCHITECTURES.items():
        for strategy in STRATEGIES:
            name = f"{arch_name}-{strategy}"
            config = harness.config_from_dict({
                "data": {"profile": str(profile), "seed": 3}, "domain_key": "site",
                "architecture": architecture, "strategy": strategy,
                "output_dir": str(root / name), "epochs_per_task": 2,
                "batch_size": 16, "buffer_budget": 16, "n_runs": 1, "master_seed": 1,
            })
            harness.run_experiment(config)
            with (root / name / "run_00.jsonl").open("rb") as fh:
                fh.readline()
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_records_match_the_pinned_digests(tmp_path):
    digests = record_digests(tmp_path / "first")
    core = openblas_core()
    if core not in PINNED:
        assert record_digests(tmp_path / "second") == digests
        pytest.skip(f"no digests pinned for OpenBLAS core {core!r}; "
                    f"to pin: {json.dumps(digests, indent=1, sort_keys=True)}")
    assert digests == PINNED[core]
