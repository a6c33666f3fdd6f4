"""Command-line surface.

Commands::

    entgrowth simulate <config.json>          full pipeline per the config
    entgrowth lyapunov <config.json>          its Lyapunov stage only
    entgrowth exponent <config.json>          its propagation, Lyapunov and exponent stages;
                                              gaussian configs only (fock: exit 2)
    entgrowth bounds-check <config.json>      its propagation and bound stages
    entgrowth oracle <config.json>            simulate, for fock configs only
    entgrowth scenario list
    entgrowth scenario run <name> [--override key=val ...] [--csv ...] [--report ...]

``lyapunov``, ``exponent`` and ``bounds-check`` run stages of ``simulate``
with its defaults and tolerances, so their sections equal the sections of
the same name in the ``simulate`` report.  They write no files: their only
output flag is ``--json``.  Exit code is 0 only when every asserted
invariant in the run passed, 1 when one failed, 2 for a usage or config
error, a config file that is not UTF-8 text, or a config or output path
the operating system refuses, and 141 when the reader closed standard
output before the report was written (``entgrowth ... | head``).
"""

import argparse
import json
import os
import sys

from .config import ScenarioConfig, parse_config, serialize_config
from .errors import ConfigError
from .fock import FockState
from .reporting import RunReport
from .scenarios import SCENARIO_NAMES, run_scenario, run_view, scenario_document

# the shell's status for a process that SIGPIPE ended, 128 + 13
EXIT_BROKEN_PIPE = 141


def _load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            reason = f"{exc.reason} at byte {exc.start}"
            raise ConfigError(f"{path} is not UTF-8 text ({reason})") from exc
    return parse_config(text)


def _emit(report: RunReport, args) -> int:
    sys.stdout.write(report.to_text())
    if args.json:
        sys.stdout.write(report.to_json())
    return 0 if report.ok else 1


def _apply_output_flags(cfg, args):
    if args.csv:
        cfg.output.csv = args.csv
    if args.report:
        cfg.output.report = args.report
    if args.report_json:
        cfg.output.report_json = args.report_json


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _apply_output_flags(cfg, args)
    report = run_scenario(cfg)
    return _emit(report, args)


def _cmd_view(args) -> int:
    return _emit(run_view(_load_config(args.config), args.view), args)


def _cmd_oracle(args) -> int:
    cfg = _load_config(args.config)
    if not isinstance(cfg.initial_state, FockState):
        raise ConfigError("oracle command needs a fock initial state", "initial_state.type")
    _apply_output_flags(cfg, args)
    report = run_scenario(cfg)
    return _emit(report, args)


def _apply_override(cfg_dict, key, value):
    parts = key.split(".")
    node = cfg_dict
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    try:
        node[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[parts[-1]] = value


def _cmd_scenario(args) -> int:
    if args.action == "list":
        for name in SCENARIO_NAMES:
            sys.stdout.write(name + "\n")
        return 0
    doc = scenario_document(args.name)
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override must look like key=val, got {item!r}")
        _apply_override(doc, key, value)
    cfg = parse_config(json.dumps(doc))
    _apply_output_flags(cfg, args)
    if args.print_config:
        sys.stdout.write(serialize_config(cfg))
        return 0
    report = run_scenario(cfg)
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entgrowth",
                                     description="entanglement growth under quadratic Hamiltonians")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, files=True):
        p.add_argument("--json", action="store_true", help="also print the JSON report")
        if files:
            p.add_argument("--csv", help="write the time-series CSV here")
            p.add_argument("--report", help="write the text report here")
            p.add_argument("--report-json", dest="report_json", help="write the JSON report here")

    # the stage commands write no files, so they take no file flags
    for name, fn, view in (("simulate", _cmd_simulate, None), ("lyapunov", _cmd_view, "lyapunov"),
                           ("exponent", _cmd_view, "exponent"), ("bounds-check", _cmd_view, "bounds"),
                           ("oracle", _cmd_oracle, None)):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON scenario config")
        add_output(p, files=view is None)
        p.set_defaults(func=fn, view=view)

    p_scen = sub.add_parser("scenario")
    p_scen.add_argument("action", choices=("list", "run"))
    p_scen.add_argument("name", nargs="?", help="builtin scenario name (for run)")
    p_scen.add_argument("--override", action="append", default=[],
                        metavar="key=val", help="dotted-path config override")
    p_scen.add_argument("--print-config", action="store_true",
                        help="print the resolved config instead of running")
    add_output(p_scen)
    p_scen.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scenario" and args.action == "run" and not args.name:
        parser.error("scenario run needs a name")
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed standard output (``| head``): no message, and
        # nothing left for the interpreter's exit flush to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        # a config path that cannot be read or an output path that cannot be written
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
