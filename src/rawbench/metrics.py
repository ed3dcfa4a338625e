"""Corruption-degradation metrics over externally produced task scores.

CD compares a method's error under a corruption to a reference method's
error; rCD normalizes by the error increase each method suffers relative to
its own clear-condition score. Scores may arrive as fractions or percents;
everything is normalized to fractions before any arithmetic.
"""

from dataclasses import dataclass

from .errors import MetricError, ParameterError, is_finite_real, is_real

NORMAL_CONDITION = "normal"


@dataclass(frozen=True)
class EvalRecord:
    method: str
    condition: str
    score: float  # fraction in [0, 1]

    def __post_init__(self):
        if not (isinstance(self.method, str) and isinstance(self.condition, str)):
            raise ParameterError("method and condition must be strings")
        if not (is_real(self.score) and 0.0 <= self.score <= 1.0):
            raise ParameterError(
                f"score for ({self.method}, {self.condition}) outside [0, 1]"
            )


def normalize_score(value: float) -> float:
    """Accept fractions or percents; anything in (1, 100] is divided by 100."""
    if not is_finite_real(value):
        raise ParameterError(f"score {value!r} is not a number or not finite")
    if value > 1.0:
        value = value / 100.0
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"score {value!r} outside [0, 1] after normalization")
    return value


def _degradation(score_f: float, score_ref: float, f_normal: float = 1.0,
                 ref_normal: float = 1.0):
    """(f_normal - score_f) / (ref_normal - score_ref), or None where the
    reference does not degrade. CD takes a perfect score as the normal one;
    rCD takes each method's clear-condition score."""
    den = ref_normal - score_ref
    return None if den == 0.0 else (f_normal - score_f) / den


def corruption_degradation(score_f: float, score_ref: float) -> float:
    """CD = (1 - score_f) / (1 - score_ref)."""
    cd = _degradation(normalize_score(score_f), normalize_score(score_ref))
    if cd is None:
        raise MetricError("reference error is zero; CD undefined")
    return cd


def relative_cd(score_f_c: float, score_f_normal: float, score_ref_c: float,
                score_ref_normal: float) -> float:
    """rCD = (score_f_normal - score_f_c) / (score_ref_normal - score_ref_c)."""
    score_f_c = normalize_score(score_f_c)
    score_f_normal = normalize_score(score_f_normal)
    score_ref_c = normalize_score(score_ref_c)
    score_ref_normal = normalize_score(score_ref_normal)
    rcd = _degradation(score_f_c, score_ref_c, score_f_normal, score_ref_normal)
    if rcd is None:
        raise MetricError(
            "rCD undefined: reference degrades by zero "
            f"(normal={score_ref_normal}, corrupted={score_ref_c})"
        )
    return rcd


def truncated_mean(values) -> float:
    """Drop one minimum and one maximum (first occurrences), mean the rest."""
    values = list(values)
    if len(values) < 3:
        raise ParameterError("truncated mean needs at least 3 values")
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    drop = {order[0], order[-1]}
    kept = [v for i, v in enumerate(values) if i not in drop]
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class RobustnessReport:
    reference: str
    methods: tuple
    conditions: tuple
    cd: dict        # (method, condition) -> float | None
    rcd: dict       # (method, condition) -> float | None
    truncated_mean_rcd: dict  # method -> float | None


def build_report(records, reference_method: str) -> RobustnessReport:
    """CD/rCD per (method, condition) plus a per-method truncated-mean rCD
    over the corruption conditions. Undefined cells are kept as explicit
    None markers; the truncated mean skips them and needs >= 3 defined values.
    """
    scores: dict[tuple[str, str], float] = {}
    for rec in records:
        key = (rec.method, rec.condition)
        if key in scores and scores[key] != rec.score:
            raise ParameterError(f"conflicting records for {key}")
        scores[key] = rec.score
    methods = tuple(sorted({m for m, _ in scores}))
    conditions = tuple(sorted({c for _, c in scores}))
    if reference_method not in methods:
        raise MetricError(f"no records for reference method {reference_method!r}")
    for c in conditions:
        if (reference_method, c) not in scores:
            raise MetricError(
                f"reference method {reference_method!r} has no record for "
                f"condition {c!r}"
            )
    cd, rcd = {}, {}
    ref_normal = scores.get((reference_method, NORMAL_CONDITION))
    for m in methods:
        for c in conditions:
            key = (m, c)
            if key not in scores:
                cd[key] = None
                rcd[key] = None
                continue
            s_f, s_ref = scores[key], scores[(reference_method, c)]
            cd[key] = _degradation(s_f, s_ref)
            m_normal = scores.get((m, NORMAL_CONDITION))
            if (c == NORMAL_CONDITION or m_normal is None
                    or ref_normal is None):
                rcd[key] = None
            else:
                rcd[key] = _degradation(s_f, s_ref, m_normal, ref_normal)
    tmean = {}
    for m in methods:
        defined = [rcd[(m, c)] for c in conditions
                   if c != NORMAL_CONDITION and rcd[(m, c)] is not None]
        tmean[m] = truncated_mean(defined) if len(defined) >= 3 else None
    return RobustnessReport(reference=reference_method, methods=methods,
                            conditions=conditions, cd=cd, rcd=rcd,
                            truncated_mean_rcd=tmean)


def format_report_table(report: RobustnessReport) -> str:
    """Plain-text table: one section per metric, values in percent."""

    def fmt(v):
        return "n/a" if v is None else f"{100.0 * v:.1f}%"

    width = max([len(c) for c in report.conditions] + [10]) + 2
    mwidth = max([len(m) for m in report.methods] + [8]) + 2
    lines = [f"reference: {report.reference}"]
    for title, table in (("CD", report.cd), ("rCD", report.rcd)):
        lines.append("")
        lines.append(title)
        header = " " * mwidth + "".join(c.rjust(width) for c in report.conditions)
        lines.append(header)
        for m in report.methods:
            row = m.ljust(mwidth)
            row += "".join(fmt(table[(m, c)]).rjust(width)
                           for c in report.conditions)
            lines.append(row)
    lines.append("")
    lines.append("truncated-mean rCD")
    for m in report.methods:
        lines.append(f"{m.ljust(mwidth)}{fmt(report.truncated_mean_rcd[m])}")
    return "\n".join(lines) + "\n"
