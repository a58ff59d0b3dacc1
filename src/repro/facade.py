"""`repro.run` — the one front door for executing experiments.

Before 2.0 the library had three run spellings: ``run_spec`` (plain
specs), ``run_scenario_spec`` (scenario-carrying specs), and ad-hoc
executor calls inside experiment runners.  :func:`run` consolidates
them: give it a :class:`~repro.exec.spec.RunSpec` or a
:class:`~repro.scenarios.schema.ScenarioSpec`, optionally name a
measurement backend and/or an executor, and it does the right thing.
The old spellings were removed in 2.0 (see ``exec/API.md``,
"Migration table").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

__all__ = ["run"]


def _is_scenario(obj: object) -> bool:
    # Duck-typed so repro.scenarios is only imported when needed.
    return hasattr(obj, "fleets") and hasattr(obj, "pools")


def run(
    spec_or_scenario: object,
    *,
    backend: Optional[str] = None,
    executor: object = None,
    progress: object = None,
    strict_guards: bool = False,
) -> Union[object, List[object]]:
    """Execute an experiment description end to end.

    Parameters
    ----------
    spec_or_scenario:
        A :class:`~repro.exec.spec.RunSpec` (one independent
        experiment — returns its ``RunResult``) or a
        :class:`~repro.scenarios.schema.ScenarioSpec` (compiled to its
        full factor-matrix x replication schedule — returns the list
        of ``RunResult``\\ s in schedule order).
    backend:
        Measurement backend name overriding ``spec.backend`` (e.g.
        ``"live"``); None keeps what the spec says.  Configure backend
        options (like the live target) via
        :func:`repro.measure.set_backend_defaults`.
    executor:
        How to schedule the runs: None uses the direct in-process path
        for a single spec and the process-wide default executor for
        scenarios; a string names a registered executor backend
        (``"serial"``, ``"process"``, ``"cluster"``); anything with a
        ``.run(specs, progress=...)`` method is used as-is (and not
        closed).
    progress:
        Optional :mod:`repro.exec.progress` hook forwarded to the
        executor.
    strict_guards:
        Guards are advisory by default: every result carries its
        validity audit on ``result.guards`` and nothing raises.  With
        ``strict_guards=True`` any run whose audit *fails* a detector
        raises :class:`~repro.guards.api.GuardFailureError` (warnings
        still pass) — the programmatic twin of the CLI's
        ``--strict-guards`` flag.

    Examples
    --------
    ::

        result = repro.run(spec)
        result = repro.run(spec, backend="live")
        results = repro.run(scenario, executor="process")
    """
    from .measure.api import measure_spec

    if _is_scenario(spec_or_scenario):
        from .scenarios.compiler import compile_scenario

        specs: Sequence[object] = compile_scenario(spec_or_scenario)
        single = False
    else:
        specs = [spec_or_scenario]
        single = True

    if backend is not None:
        specs = [s.replace(backend=backend) for s in specs]

    if executor is None:
        if single:
            return _enforce_guards(measure_spec(specs[0]), strict_guards)
        from .exec.executors import execute_specs

        results = execute_specs(specs, progress=progress)
        return [_enforce_guards(r, strict_guards) for r in results]

    if isinstance(executor, str):
        from .exec.api import make_executor

        with make_executor(executor) as ex:
            results = ex.run(specs, progress=progress)
    else:
        results = executor.run(specs, progress=progress)
    results = [_enforce_guards(r, strict_guards) for r in results]
    return results[0] if single else results


def _enforce_guards(result: object, strict: bool) -> object:
    if not strict:
        return result
    report = getattr(result, "guards", None)
    if report is None or report.ok:
        return result
    from .guards.api import GuardFailureError

    failures = report.failures()
    names = ", ".join(v.detector for v in failures)
    raise GuardFailureError(
        f"measurement failed validity guard(s) {names}: "
        + "; ".join(v.summary for v in failures),
        verdicts=failures,
    )
