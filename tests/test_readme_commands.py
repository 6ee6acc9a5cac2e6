"""The README's CLI commands, pinned byte for byte.

Each command of the README's CLI section runs on fixed f.json and
g.json; its exit code and the sha256 of its stdout must match the
digests below.  A change that moves a printed digit updates the digest
and shows the output before and after in CHANGES.md.
"""

import hashlib
import json

import pytest

from slicereg.cli import main

# (q - i)(q - j)((2 + 0.5i - k) + q (0.25 + j) + q^2 (0.5 - 0.75i + 0.125k)):
# two isolated zeros on the unit sphere, and nonzero derivatives at i.
F = {"coeffs": [[1.0, 0.0, 0.5, 2.0], [0.5, -2.0, -3.0, 0.75],
                [2.875, 0.25, -1.0, -1.5], [-0.5, -0.625, 0.625, -0.75],
                [0.5, -0.75, 0.0, 0.125]]}
G = {"coeffs": [[0.5, -1.25, 2.0, 0.1], [1.0, 0.3, 0.0, -0.7]]}

# (argv as in the README, exit code, sha256 of stdout)
COMMANDS = [
    ("eval f.json --at [1,0,0,1]", 0,
     "dfca3a2a4ad65a580281be3518a77a60657a94d19cb107db62a05ba518918026"),
    ("star f.json g.json", 0,
     "6a963df10167630feb06b1b17dfd236d2e62fc986020a0b1510ddce145ae70ec"),
    ("expand f.json --q0 [0,1,0,0] --order 4", 0,
     "8a7efbc948992dfda9351a8e1764b8d75a61f8ccc44c520d50ea26a59d639db2"),
    ("deriv f.json --q0 [0,1,0,0] --direction [1,0,0,0]", 0,
     "20e1ecac121ca8263b2afb995c90a7fc8eecd7b2fb9658dd2de78f7c7b2088ba"),
    ("jacobian f.json --q0 [0,1,0,0]", 0,
     "8b92869f9d173e7261672c06c48b70474af07334f29a935a39bca79547329eea"),
    ("mult f.json --sphere 0,1", 0,
     "a6a002e7e45487b7e3773fde50825cd410e99765c9edc709f7282a303b5c453f"),
    ("verify-cauchy f.json --sphere 0,1 --radius 2 --order 6", 0,
     "99e6aed4c859be8b3c7f3ae77172944585daad059e8786af439d4a0faac059ef"),
    ("lemniscate --sphere 0,1 --radius 1 --nodes 256", 0,
     "826de89b7996a65647f858aff9284f59c86baa7f3a9ec4a36f2b34b425e5fb66"),
]


@pytest.mark.parametrize("command, code, digest", COMMANDS,
                         ids=[case[0].split()[0] for case in COMMANDS])
def test_readme_command_output_is_pinned(tmp_path, capsys, command, code,
                                         digest):
    for name, poly in (("f.json", F), ("g.json", G)):
        (tmp_path / name).write_text(json.dumps(poly))
    argv = [str(tmp_path / word) if word.endswith(".json") else word
            for word in command.split()]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
