"""Configuration-driven verification runs with deterministic reports.

Config grammar (strict; unknown sections or keys are fatal)::

    [topology]
    vertices = v1 v2 v3 v4
    outputs = 2
    edge e1 = v1 v2            # repeated, one line per edge
    sources = v1
    sinks = v4

    [coefficients]
    mode = seeded              # seeded | explicit
    seed = 42                  # seeded: uniform real draws on [low, high]
    low = 0.3
    high = 1.0
    # explicit mode instead uses repeated lines (1-based stream indices):
    # alpha <input> <edge> = <re> [<im>]
    # beta <edge> <edge> = <re> [<im>]
    # gamma <output> <edge> = <re> [<im>]

    [input]
    kind = qpsk                # bpsk | qpsk | gaussian | point
    dimension = 2

    [engine]
    method = quadrature        # quadrature | mc
    nodes = 16
    samples = 1000000
    seed = 42
    workers = 1

    [run]
    tolerance = 1e-3
    units = bits               # report units; CSV is always in nats
    step = 1e-3
    ascent_step = 0.5          # optimize-precoder only
    ascent_iterations = 20
    budget = 1.4142135623730951

CSV schema, one row per check::

    suite,check_id,target,entry_row,entry_col,closed_form_re,closed_form_im,
    oracle_re,oracle_im,abs_err,rel_err,pass

``check_id`` is unquoted, and a matrix check's id such as ``A[0,1]`` holds
a comma, so such a row has 13 fields under the 12 names: the id is everything
between the first field and the last ten.

Values are canonical nats formatted with %.17g, so re-running a config
reproduces the CSV byte for byte regardless of the worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CodedFlowError, ConfigError
from .estimator import EngineSpec, mmse_matrix
from .flowmodel import InputDistribution, _philox
from .infogradients import (
    NATS_PER_BIT,
    STEP_RANGE,
    _relative_gap,
    _targets,
    closed_gradient,
    effective_matrix,
    mutual_information,
    verify_gradients,
)
from .netgraph import (
    _EDGE_POSITIONS,
    CodingCoefficients,
    NetworkTopology,
    SystemMatrices,
    build_coefficient_matrices,
    compact_system,
)
from . import scenarios

_EXACT_TOL = 1e-10


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_SECTIONS = {
    "topology": {"vertices", "outputs", "edge", "sources", "sinks"},
    "coefficients": {"mode", "seed", "low", "high", "alpha", "beta", "gamma"},
    "input": {"kind", "dimension"},
    "engine": {"method", "nodes", "samples", "seed", "workers"},
    "run": {"tolerance", "units", "step", "ascent_step", "ascent_iterations", "budget"},
}
_REPEATED_KEYS = {"edge", "alpha", "beta", "gamma"}
# key -> section of the keys a command-line flag of the same name replaces;
# ``[coefficients] seed`` has no flag, only ``[engine] seed``
_FLAG_KEYS = {
    "seed": "engine",
    "samples": "engine",
    "nodes": "engine",
    "method": "engine",
    "workers": "engine",
    "tolerance": "run",
    "units": "run",
}
_INPUT_KINDS = {
    "bpsk": InputDistribution.bpsk,
    "qpsk": InputDistribution.qpsk,
    "gaussian": InputDistribution.gaussian,
    # deterministic input: the all-ones vector with probability one
    "point": lambda n: InputDistribution.point(np.ones(n, dtype=complex)),
}


@dataclass(frozen=True)
class RunConfig:
    topology: NetworkTopology
    coefficients: CodingCoefficients
    n_in: int
    n_out: int
    dist: InputDistribution
    engine: EngineSpec
    tolerance: float
    units: str
    step: float
    ascent_step: float
    ascent_iterations: int
    budget: float | None
    digest: str


def _tokenize(text: str):
    """Yield (line_number, section, key_tokens, value_tokens) entries."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            yield lineno, section, None, None
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno, column=len(line))
        if section is None:
            raise ConfigError("entry outside any section", line=lineno)
        left, right = line.split("=", 1)
        key_tokens = left.split()
        if not key_tokens:
            raise ConfigError("missing key", line=lineno)
        if key_tokens[0] not in _SECTIONS[section]:
            raise ConfigError(
                f"unknown key {key_tokens[0]!r} in section [{section}]", line=lineno
            )
        yield lineno, section, key_tokens, right.split()


def _number(convert, text, key, line=None):
    """``convert(text)`` for one setting; a ConfigError names the key and line."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ConfigError(f"{key} must be {kind}, not {text!r}", line=line) from None


def _parse_complex(tokens, lineno, key):
    if len(tokens) not in (1, 2):
        raise ConfigError(f"{key} must be one or two numbers, not {' '.join(tokens)!r}", line=lineno)
    parts = [_number(float, token, key, lineno) for token in tokens]
    for token, part in zip(tokens, parts):
        if not np.isfinite(part):
            raise ConfigError(f"{key} must be finite, not {token!r}", line=lineno)
    return complex(*parts)


def _seeded_coefficients(topology, n_in, n_out, seed, low, high):
    """One uniform real draw per allowed coefficient slot, in ``coefficient_slots`` order."""
    rng = _philox(seed, 0xC0EF)
    slots = topology.coefficient_slots(n_in, n_out)
    return CodingCoefficients(
        **{name: {key: float(rng.uniform(low, high)) for key in keys} for name, keys in slots.items()}
    )


def _one_of(*choices):
    return (lambda v: v in choices, "be one of " + ", ".join(choices))


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and fully resolve a run configuration.

    ``overrides`` maps the keys of ``_FLAG_KEYS`` (seed, samples, nodes,
    method, workers, tolerance, units) to command-line flag values, as text
    or as numbers.  A flag value replaces the config value of that key in its
    section, even when it is zero, and is converted and checked by the same
    rule; its rejection names the key, a config value's also its line.
    """
    entries: dict = {}
    seen_sections = set()
    for lineno, section, key_tokens, value_tokens in _tokenize(text):
        if key_tokens is None:
            seen_sections.add(section)
            continue
        key = key_tokens[0]
        if key not in _REPEATED_KEYS and key_tokens[1:]:
            raise ConfigError(f"key {key!r} takes no arguments", line=lineno)
        entries.setdefault((section, key), []).append((lineno, key_tokens[1:], value_tokens))
    if not entries:
        raise ConfigError("empty configuration", line=1)
    for required_section in ("topology", "input", "engine"):
        if required_section not in seen_sections:
            raise ConfigError(f"missing section [{required_section}]")

    overrides = overrides or {}

    def setting(section, key, default=None, convert=str, *, required=False, rule=None):
        """One scalar key from its flag or its single config line, converted;
        ``rule`` is a (test, wording) pair the value must meet."""
        found = entries.get((section, key), [])
        if len(found) > 1:
            raise ConfigError(f"key {key!r} in section [{section}] given more than once", line=found[-1][0])
        if _FLAG_KEYS.get(key) == section and overrides.get(key) is not None:
            raw, line = overrides[key], None
        elif found:
            line, _, tokens = found[0]
            raw = " ".join(tokens)
        elif required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        else:
            raw, line = default, None
        if raw is None:
            return None
        value = _number(convert, raw, key, line)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{key} must {rule[1]}, not {value!r}", line=line)
        return value

    nonnegative, positive = (lambda v: v >= 0, "be nonnegative"), (lambda v: v >= 1, "be at least 1")

    # -- topology -------------------------------------------------------
    vertices = setting("topology", "vertices", required=True).split()
    vset = set(vertices)
    in_vertices = (lambda v: set(v.split()) <= vset, "name only vertices")
    sources = setting("topology", "sources", required=True, rule=in_vertices).split()
    sinks = setting("topology", "sinks", required=True, rule=in_vertices).split()
    n_out = setting("topology", "outputs", convert=int, required=True, rule=positive)
    edge_lines = entries.get(("topology", "edge"), [])
    if not edge_lines:
        raise ConfigError("topology needs at least one edge line")
    names, pairs = [], []
    for lineno, args, value in edge_lines:
        if len(args) != 1 or len(value) != 2:
            raise ConfigError("edge lines read 'edge NAME = TAIL HEAD'", line=lineno)
        for v in value:
            if v not in vset:
                raise ConfigError(f"edge {args[0]!r} references unknown vertex {v!r}", line=lineno)
        names.append(args[0])
        pairs.append((value[0], value[1]))
    if len(set(names)) != len(names):
        raise ConfigError("duplicate edge names")
    topology = NetworkTopology.from_edges(vertices, pairs, sources, sinks, edge_names=names)
    ends = (("sources", "leaving", topology.source_outgoing()), ("sinks", "entering", topology.sink_incoming()))
    for key, way, edges in ends:
        if not edges:
            raise ConfigError(f"{key} must have an edge {way} them", line=entries[("topology", key)][0][0])

    # -- input ----------------------------------------------------------
    kind = setting("input", "kind", required=True, rule=_one_of(*_INPUT_KINDS))
    n_in = setting("input", "dimension", convert=int, required=True, rule=positive)
    dist = _INPUT_KINDS[kind](n_in)

    # -- coefficients -----------------------------------------------------
    mode = setting("coefficients", "mode", "explicit", rule=_one_of("seeded", "explicit"))
    if mode == "seeded":
        seed = setting("coefficients", "seed", convert=int, required=True)
        low = setting("coefficients", "low", "0.3", float, rule=(np.isfinite, "be finite"))
        at_least_low = (lambda v: low <= v < np.inf, f"be finite and at least low = {low!r}")
        high = setting("coefficients", "high", "1.0", float, rule=at_least_low)
        coefficients = _seeded_coefficients(topology, n_in, n_out, seed, low, high)
    else:
        families = {}
        for family, edge_at in _EDGE_POSITIONS.items():
            families[family] = store = {}
            form = " ".join("<edge>" if pos in edge_at else "<index>" for pos in range(2))
            for lineno, args, value in entries.get(("coefficients", family), []):
                if len(args) != 2:
                    raise ConfigError(f"{family} lines read '{family} {form} = value'", line=lineno)
                indices = []
                for pos, token in enumerate(args):
                    if pos in edge_at:
                        if token not in names:
                            raise ConfigError(
                                f"{family} references unknown edge {token!r}", line=lineno
                            )
                        indices.append(topology.edge_index(token))
                    else:
                        indices.append(_number(int, token, f"{family} index", lineno) - 1)
                store[tuple(indices)] = _parse_complex(value, lineno, family)
        coefficients = CodingCoefficients(**families)

    # -- engine: the keys set here; EngineSpec supplies the rest ----------
    given = {
        "method": setting("engine", "method", rule=_one_of("quadrature", "mc")),
        "nodes": setting("engine", "nodes", convert=int, rule=positive),
        "samples": setting("engine", "samples", convert=int, rule=positive),
        "seed": setting("engine", "seed", convert=int),
        "workers": setting("engine", "workers", convert=int, rule=positive),
    }
    engine = EngineSpec(**{key: value for key, value in given.items() if value is not None})

    # -- run ---------------------------------------------------------------
    tolerance = setting("run", "tolerance", "1e-3", float, rule=nonnegative)
    units = setting("run", "units", "bits", rule=_one_of("bits", "nats"))
    lo, hi = STEP_RANGE
    step = setting("run", "step", "1e-3", float, rule=(lambda v: lo <= v <= hi, f"lie in [{lo:g}, {hi:g}]"))
    finite_nonnegative = (lambda v: 0 <= v < np.inf, "be nonnegative and finite")
    ascent_step = setting("run", "ascent_step", "0.5", float, rule=finite_nonnegative)
    ascent_iterations = setting("run", "ascent_iterations", "20", int, rule=nonnegative)
    budget = setting("run", "budget", convert=float, rule=(lambda v: 0 < v < np.inf, "be positive and finite"))

    config = RunConfig(
        topology=topology,
        coefficients=coefficients,
        n_in=n_in,
        n_out=n_out,
        dist=dist,
        engine=engine,
        tolerance=tolerance,
        units=units,
        step=step,
        ascent_step=ascent_step,
        ascent_iterations=ascent_iterations,
        budget=budget,
        digest=hashlib.sha256(text.encode()).hexdigest(),
    )
    # fail fast on coefficient/topology mismatches (names the offending key)
    config.coefficients.validate(topology, n_in, n_out)
    return config


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class CheckRow:
    check_id: str
    target: str
    entry_row: int
    entry_col: int
    closed: complex | None
    oracle: complex | None
    abs_err: float | None
    rel_err: float | None
    passed: bool


@dataclass
class Report:
    command: str
    digest: str
    units: str
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.rows)

    def check(self, check_id, target, closed, oracle, passed, entry=(0, 0), abs_err=None, rel_err=None):
        """Append one check row; a value left ``None`` is an empty CSV cell."""
        kinds = ((complex, closed), (complex, oracle), (float, abs_err), (float, rel_err))
        values = [None if x is None else kind(x) for kind, x in kinds]
        self.rows.append(CheckRow(check_id, target, *entry, *values, bool(passed)))

    def render_csv(self) -> str:
        def fmt(*values):
            return ["" if x is None else format(float(x), ".17g") for x in values]

        def parts(z):  # the real and imaginary cells of a complex value
            return fmt(None, None) if z is None else fmt(z.real, z.imag)

        lines = [
            "suite,check_id,target,entry_row,entry_col,closed_form_re,closed_form_im,"
            "oracle_re,oracle_im,abs_err,rel_err,pass"
        ]
        for r in self.rows:
            cells = [self.command, r.check_id, r.target, str(r.entry_row), str(r.entry_col)]
            cells += [*parts(r.closed), *parts(r.oracle), *fmt(r.abs_err, r.rel_err)]
            lines.append(",".join([*cells, "true" if r.passed else "false"]))
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [
            f"codedflow {self.command} report",
            f"library version: {__version__}",
            f"config digest: sha256:{self.digest}",
            f"units: {self.units} (CSV values are nats)",
            "",
        ]
        lines.extend(self.notes)
        failed = [r for r in self.rows if not r.passed]
        lines.append("")
        lines.append(f"checks: {len(self.rows) - len(failed)} passed, {len(failed)} failed")
        if self.error is not None:
            lines.append(f"error: {self.error}")
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _matrix_rows(report, target, closed, oracle=None, tolerance=None):
    """One check row per matrix entry comparing closed form against oracle;
    without an oracle an entry passes when it is finite."""
    closed = np.asarray(closed)
    if oracle is None:
        for (i, j), value in np.ndenumerate(closed):
            report.check(f"{target}[{i},{j}]", target, value, None, np.isfinite(value), (i, j))
        return
    oracle = np.asarray(oracle)
    gap, rel = _relative_gap(closed, oracle)
    for (i, j), value in np.ndenumerate(closed):
        report.check(
            f"{target}[{i},{j}]", target, value, oracle[i, j], rel[i, j] <= tolerance, (i, j), gap[i, j], rel[i, j]
        )


def _info_note(report, label, mi):
    per_unit = NATS_PER_BIT if report.units == "bits" else 1.0
    se = "" if mi.standard_error is None else f" +- {mi.standard_error / per_unit:.2e}"
    report.notes.append(f"{label}: {mi.nats / per_unit:.9f} {report.units}{se} [{mi.method}]")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _compact(config: RunConfig) -> SystemMatrices:
    full = build_coefficient_matrices(
        config.topology, config.coefficients, config.n_in, config.n_out
    )
    return compact_system(full, config.topology)


def _cmd_verify(config: RunConfig, report: Report):
    sys_c = _compact(config)
    result = verify_gradients(sys_c, config.dist, config.engine, step=config.step)
    mi = mutual_information(sys_c.M, config.dist, config.engine)
    _info_note(report, "mutual information", mi)
    for target in _targets("full"):
        disc = result.discrepancy(target)
        _matrix_rows(report, target, result.closed[target], result.oracles[target], config.tolerance)
        report.notes.append(
            f"grad {target}: max rel discrepancy {disc['max_rel']:.3e} at entry {disc['entry']}, "
            f"step-halving change {result.refinement[target]:.2e} nats"
        )


def _cmd_gradients(config: RunConfig, report: Report):
    sys_c = _compact(config)
    err = mmse_matrix(sys_c.M, config.dist, config.engine)
    for target in _targets("full"):
        _matrix_rows(report, target, closed_gradient(sys_c, err, target, "full"))
    report.notes.append("closed-form gradients only; pass requires finite entries")


def _cmd_cuts(config: RunConfig, report: Report):
    sys_c = _compact(config)
    results = {}
    for cut in ("source", "mid"):
        result = results[cut] = verify_gradients(sys_c, config.dist, config.engine, step=config.step, objective=cut)
        mi = mutual_information(effective_matrix(cut, sys_c), config.dist, config.engine)
        _info_note(report, f"{cut}-cut information", mi)
        for target in result.targets():
            closed, oracle = result.closed[target], result.oracles[target]
            _matrix_rows(report, f"{cut}.{target}", closed, oracle, config.tolerance)
            report.notes.append(f"{cut}.{target}: step-halving change {result.refinement[target]:.2e} nats")
    mi_full = mutual_information(sys_c.M, config.dist, config.engine)
    _info_note(report, "full-cut information", mi_full)

    # reduction identities, exact: with A = G = I the mid and full forms equal the source form
    eye = np.eye(sys_c.B.shape[0])
    reduced = SystemMatrices.from_factors(eye, eye, sys_c.B, form="compact")
    source = closed_gradient(reduced, results["source"].mmse, "B", "source")
    for cut in ("mid", "full"):
        closed = closed_gradient(reduced, results["source"].mmse, "B", cut)
        _matrix_rows(report, f"reduction.{cut}_vs_source", closed, source, _EXACT_TOL)


def _count_row(report, check_id, actual, expected):
    same = actual == expected
    report.check(
        check_id, "terms", actual, expected, same, abs_err=abs(actual - expected), rel_err=float(not same)
    )


def _cmd_example1(config: RunConfig, report: Report):
    symbols = scenarios.diamond_symbols(config.topology, config.coefficients)

    for variant, expected in (("full", 24), ("no-e3", 16), ("no-e2e5", 8)):
        _count_row(report, f"term-count.{variant}", scenarios.EXPANSIONS[variant].term_count, expected)
    # each stored variant against the printed list less what zeroing its removed edge zeroes
    for variant, edge in (("no-e3", "e3"), ("no-e2e5", "e5")):
        reduced = scenarios.reduce_terms(scenarios.TERMS_FULL_PRINTED, scenarios.edge_symbols(edge))
        match = sorted(reduced) == sorted(scenarios.EXPANSIONS[variant].terms)
        _count_row(report, f"reduction.{variant}", int(match), 1)

    check = scenarios.grad11_matches_matrix_form(draws=100, seed=config.engine.seed)
    for d, passed in enumerate(check.draw_passed(_EXACT_TOL)):
        report.check(
            f"draw{d:03d}",
            "entry11",
            check.printed_values[d],
            check.matrix_values[d],
            passed,
            abs_err=check.printed_gap[d],
            rel_err=check.attribution_gap[d],
        )
    report.notes.append(
        "published expansion vs matrix form: max gap "
        f"{check.max_printed_gap:.3e}; corrected expansion matches to "
        f"{check.max_corrected_gap:.3e}; the gap is attributed to the single "
        f"divergent E11 monomial to {check.max_attribution_gap:.3e}"
    )
    report.notes.append(scenarios.erratum_note())
    at_config = abs(
        scenarios.topology_grad11("full-corrected", symbols, np.eye(2))
        - scenarios.grad11_matrix_form(symbols, np.eye(2))
    )
    _count_row(report, "at-config-coefficients", int(at_config <= _EXACT_TOL), 1)


def _cmd_optimize_precoder(config: RunConfig, report: Report):
    sys_c = _compact(config)
    start = SystemMatrices.from_factors(
        sys_c.A, sys_c.G, np.zeros_like(sys_c.B), form="compact"
    )
    budget = config.budget if config.budget is not None else float(np.sqrt(config.n_in))
    trajectory = scenarios.precoder_ascent(
        start,
        config.dist,
        config.ascent_step,
        config.ascent_iterations,
        budget,
        config.engine,
    )
    prev = None
    for k, (_, info) in enumerate(trajectory):
        rise = None if prev is None else max(0.0, prev - info)
        report.check(f"iter{k:03d}", "B", info, prev, prev is None or info >= prev - 1e-9, (k, 0), rise)
        prev = info
    report.notes.append(
        f"ascent over {len(trajectory) - 1} steps, norm budget {budget:.6g}, "
        f"final information {trajectory[-1][1]:.9f} nats"
    )


_COMMANDS = {
    "verify": _cmd_verify,
    "gradients": _cmd_gradients,
    "cuts": _cmd_cuts,
    "example1": _cmd_example1,
    "optimize-precoder": _cmd_optimize_precoder,
}


def run(config: RunConfig, command: str, out_dir) -> Report:
    """Execute one command, write its CSV and text report, return the Report."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    report = Report(command=command, digest=config.digest, units=config.units)
    try:
        _COMMANDS[command](config, report)
    except CodedFlowError as exc:
        report.error = str(exc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = command.replace("-", "_")
    (out / f"{stem}.csv").write_text(report.render_csv())
    (out / f"{stem}_report.txt").write_text(report.render_text())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="codedflow",
        description="verification suites for coded-flow information/estimation identities",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a run configuration file")
    parser.add_argument("--out", default="codedflow-out", help="output directory")
    for key, section in _FLAG_KEYS.items():
        parser.add_argument(f"--{key}", help=f"replaces [{section}] {key}")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, {key: getattr(args, key) for key in _FLAG_KEYS})
        report = run(config, args.command, args.out)
    except (ConfigError, CodedFlowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_text(), end="")
    if report.error is not None:
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
