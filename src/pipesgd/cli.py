"""Command line front end for training/benchmark runs.

Options can come from flags, from a JSON config file (--config), or from
built-in defaults, in that order of precedence; a flag that contradicts
the config file wins with a warning on stderr.

Exit codes: 0 success, 1 usage or configuration problem, 2 verification
mismatch, 3 transport or protocol failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine.config import TrainConfig
from .errors import (
    ConfigError,
    FormatError,
    InputError,
    ProtocolError,
    TransportError,
    UsageError,
    VerificationError,
)
from .harness import LAUNCHERS, BenchOptions, run_benchmark
from .transport.base import LatencyModel

# flag dest -> TrainConfig field, for the options that shape the training run
_TRAIN_FIELDS = {
    "ranks": "world_size",
    "iters": "iterations",
    "batch": "batch_size",
    "epsilon": "epsilon",
    "seed": "seed",
    "layers": "layer_dims",
    "compute_inflation_ns": "compute_inflation_ns",
    "dataset_size": "dataset_size",
    "input_scale": "input_scale",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _parse_layers(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"--layers wants comma-separated integers, got {text!r}") from exc
    if len(dims) < 2:
        raise UsageError(f"--layers needs at least two widths, got {text!r}")
    return dims


def build_parser() -> _Parser:
    p = _Parser(
        prog="pipesgd-bench",
        description="Distributed SGD benchmark: pipelined engine vs barrier baseline.",
    )
    p.add_argument("--ranks", type=int, help="world size (default 4)")
    p.add_argument("--iters", type=int, help="training iterations (default 50)")
    p.add_argument("--batch", type=int, help="global batch size (default 64)")
    p.add_argument("--epsilon", type=float, help="learning rate (default 0.05)")
    p.add_argument("--seed", type=int, help="run seed (default 42)")
    p.add_argument("--layers", help="network widths, e.g. 64,128,128,64,10")
    p.add_argument(
        "--pattern",
        choices=["pipelined", "barrier", "both"],
        help="communication pattern to run (default pipelined)",
    )
    p.add_argument("--transport", choices=list(LAUNCHERS), help="rank transport (default inproc)")
    p.add_argument("--latency-fixed-ns", type=int, help="injected per-message latency")
    p.add_argument("--latency-per-byte-ns", type=float, help="injected per-byte latency")
    p.add_argument(
        "--compute-inflation-ns",
        type=int,
        help="modeled backward compute per layer, during which the rank keeps communicating; "
        "layers run back to back on a device clock from the start of the backward pass",
    )
    p.add_argument("--dataset-size", type=int, help="synthetic dataset rows (default 256)")
    p.add_argument("--dataset-csv", help="train from CSV rows x...,t... instead of synthetic data")
    p.add_argument("--input-scale", type=float, help="synthetic input magnitude (default 1.0)")
    p.add_argument("--timeline", help="write per-rank event timeline CSV here")
    p.add_argument("--checkpoint", help="write the final model checkpoint here")
    p.add_argument("--metrics", help="write key=value metrics here")
    p.add_argument(
        "--verify-oracle",
        action="store_true",
        default=None,
        help="check results bit-for-bit against the single-process reference optimizer",
    )
    p.add_argument("--config", help="JSON file with defaults for any of the above")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return p


# JSON type a config-file value must have, by its flag's argparse type
_FILE_TYPES = {int: int, float: (int, float), None: str}


def _file_value(path: str, action: argparse.Action, value):
    """A config-file value, held to what its flag's parser action accepts.

    A switch takes JSON true/false, an int flag a JSON integer, a float
    flag any JSON number, a text flag a string (``layers`` also a list of
    widths), and a flag with choices only one of them.
    """
    if action.dest == "layers" and isinstance(value, list):
        value = ",".join(str(v) for v in value)
    wanted = bool if action.nargs == 0 else _FILE_TYPES[action.type]
    if (
        isinstance(value, bool) != (wanted is bool)
        or not isinstance(value, wanted)
        or (action.choices is not None and value not in action.choices)
    ):
        raise UsageError(f"{path}: option {action.dest!r} cannot be {value!r}")
    return action.type(value) if action.type else value


def _load_config_file(path: str, keys: list[str]) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"{path} must hold a JSON object")
    actions = {a.dest: a for a in build_parser()._actions if a.dest in keys}
    for key in raw:
        if key not in actions:
            raise UsageError(f"{path}: unknown option {key!r}")
    return {key: _file_value(path, actions[key], value) for key, value in raw.items()}


def _resolve(args: argparse.Namespace, keys: list[str], file_values: dict) -> dict:
    """Merge flag values over config file values, warning on conflicts."""
    merged = dict(file_values)
    for key in keys:
        flag_value = getattr(args, key)
        if flag_value is None:
            continue
        if key in file_values and file_values[key] != flag_value:
            print(
                f"warning: --{key.replace('_', '-')}={flag_value} overrides config "
                f"file value {file_values[key]!r}",
                file=sys.stderr,
            )
        merged[key] = flag_value
    return merged


def options_from_args(args: argparse.Namespace) -> BenchOptions:
    # a config file may set every option but these two, under its dest name
    keys = [key for key in vars(args) if key not in ("config", "quiet")]
    file_values = _load_config_file(args.config, keys) if args.config else {}
    values = _resolve(args, keys, file_values)
    if "layers" in values:
        values["layers"] = _parse_layers(values["layers"])
    config = TrainConfig(
        **{field: values[key] for key, field in _TRAIN_FIELDS.items() if key in values}
    )

    latency = None
    fixed = values.get("latency_fixed_ns", 0)
    per_byte = values.get("latency_per_byte_ns", 0.0)
    if fixed or per_byte:
        latency = LatencyModel(fixed_ns=fixed, per_byte_ns=per_byte)

    pattern = values.get("pattern", "pipelined")
    return BenchOptions(
        config=config,
        transport=values.get("transport", "inproc"),
        patterns=("pipelined", "barrier") if pattern == "both" else (pattern,),
        latency=latency,
        dataset_csv=values.get("dataset_csv"),
        timeline_path=values.get("timeline"),
        metrics_path=values.get("metrics"),
        checkpoint_path=values.get("checkpoint"),
        verify_oracle=bool(values.get("verify_oracle")),
        quiet=bool(args.quiet),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        options = options_from_args(args)
    except (UsageError, ConfigError, InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        run_benchmark(options)
    except (ConfigError, InputError, FormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (TransportError, ProtocolError) as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
