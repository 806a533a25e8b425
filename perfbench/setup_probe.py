"""The set-up a user pays once before the first operation, in a fresh interpreter.

Usage: setup_probe.py SRC MODEL CONFIG VARIANT. Imports vscit from SRC,
parses and validates the model and config, and builds what the workload's
operation needs besides: the fuzzy controller for fpso, the CLI for verify.
It then prints "ready", so the caller can stop its clock, and after that the
reference kernel's time in this process, so the caller can scale the set-up
time to the host's speed. The kernel runs once untimed first: its first
call in a fresh process pays page faults and numpy's first-call costs.
"""

import sys

src, model_spec, config_spec, variant = sys.argv[1:5]
sys.path.insert(0, src)

import vscit  # noqa: E402

model = vscit.parse_model(model_spec)
vscit.validate_config(model, vscit.parse_config(config_spec))
if variant == "fpso":
    vscit.FisController()
elif variant == "verify":
    import vscit.cli  # noqa: F401
print("ready", flush=True)

import hostspeed  # noqa: E402

hostspeed.reference_seconds()
print(hostspeed.reference_seconds(), flush=True)
