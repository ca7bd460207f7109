"""Plain-text run configuration.

The format is flat `key = value` lines with `#` comments and dotted keys for
grouping; lists are comma separated, polynomial terms semicolon separated:

    domain.type = circle
    domain.radius = 1.0
    tensions = 1.0, 1.0, 1.0
    n = 100
    t_end = 0.5
    perturbation.type = eigenmode
    perturbation.amplitude = 0.01
    output = run.csv

Unknown keys are rejected (ParseError naming the key); values that parse but
violate a precondition raise ValidationError naming the field, and so do
non-finite numbers, polynomial powers that are not whole numbers at most
domains.MAX_POWER, and `domain.*` keys the chosen domain type does not use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domains import ImplicitDomain, make_domain, polynomial_power
from .errors import ParseError, TensionsDegenerate, ValidationError
from .tensions import SurfaceTensions

# scalar keys: config key -> (RunConfig field, type, must be positive)
SCALAR_KEYS = {
    "n": ("n", int, True),
    "dt": ("dt", float, True),
    "t_end": ("t_end", float, True),
    "output_every": ("output_every", int, True),
    "amplitude_cap": ("amplitude_cap", float, True),
    "spectrum_n": ("spectrum_n", int, True),
    "gauge": ("gauge", float, False),
    "guess.phi": ("guess_phi", float, False),
    "perturbation.amplitude": ("perturbation_amplitude", float, True),
}

_KNOWN_KEYS = set(SCALAR_KEYS) | {
    "domain.type",
    "domain.radius",
    "domain.center",
    "domain.semi_axes",
    "domain.coefficients",
    "domain.bounding_box",
    "tensions",
    "guess.p",
    "perturbation.type",
    "perturbation.coefficients.1",
    "perturbation.coefficients.2",
    "perturbation.coefficients.3",
    "output",
    "network",
}


@dataclass
class RunConfig:
    domain_type: str
    domain_params: dict
    tensions: tuple[float, float, float]
    n: int = 100
    dt: float | None = None  # default: 0.45 * dsigma_min^2 at run time
    t_end: float = 1.0
    output_every: int = 50
    amplitude_cap: float = 0.25
    spectrum_n: int = 400
    gauge: float | None = None
    guess_p: tuple[float, float] = (0.0, 0.0)
    guess_phi: float = 0.0
    perturbation_type: str = "cosine"
    perturbation_amplitude: float = 0.01
    perturbation_coefficients: list = field(
        default_factory=lambda: [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    )
    output: str = "trajectory.csv"
    network: str | None = None

    def make_domain(self) -> ImplicitDomain:
        return make_domain(self.domain_type, **self.domain_params)

    def make_tensions(self) -> SurfaceTensions:
        return SurfaceTensions(self.tensions)


def _floats(key, text):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(key, f"cannot parse {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValidationError(key, f"values must be finite, got {text!r}")
    return vals


def _count(key, text, k):
    vals = _floats(key, text)
    if len(vals) != k:
        raise ValidationError(key, f"expected {k} number{'s' * (k > 1)}, got {len(vals)}")
    return tuple(vals)


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate; see module docstring for the format.  `overrides`
    (config key -> raw value, as `sweep` passes them) replace file entries."""
    entries: dict[str, tuple[int | None, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in entries:
            raise ParseError(lineno, f"duplicate key {key!r}")
        entries[key] = (lineno, value)
    entries.update((key, (None, value)) for key, value in (overrides or {}).items())

    def take(key, default=None):
        return entries.pop(key, (None, default))[1]

    # domain block
    dtype = take("domain.type")
    if dtype is None:
        raise ValidationError("domain.type", "missing")
    params: dict = {}
    if dtype == "circle":
        (params["radius"],) = _count("domain.radius", take("domain.radius", "1.0"), 1)
        center = take("domain.center")
        if center is not None:
            params["center"] = _count("domain.center", center, 2)
    elif dtype == "ellipse":
        axes = take("domain.semi_axes")
        if axes is None:
            raise ValidationError("domain.semi_axes", "missing for ellipse")
        params["semi_axes"] = _count("domain.semi_axes", axes, 2)
    elif dtype == "polynomial":
        coefs = take("domain.coefficients")
        if coefs is None:
            raise ValidationError("domain.coefficients", "missing for polynomial")
        terms = []
        for chunk in coefs.split(";"):
            vals = _floats("domain.coefficients", chunk)
            if len(vals) != 3:
                raise ValidationError(
                    "domain.coefficients", f"term {chunk.strip()!r} is not 'i j c'"
                )
            try:
                terms.append((polynomial_power(vals[0]), polynomial_power(vals[1]), vals[2]))
            except ValueError as exc:
                raise ValidationError("domain.coefficients", str(exc)) from exc
        params["coefficients"] = terms
        box = take("domain.bounding_box")
        if box is not None:
            params["bounding_box"] = _count("domain.bounding_box", box, 4)
    else:
        raise ValidationError("domain.type", f"unknown type {dtype!r}")
    unused = sorted(key for key in entries if key.startswith("domain."))
    if unused:
        raise ValidationError(unused[0], f"does not apply to domain.type = {dtype}")
    try:
        make_domain(dtype, **params)
    except (ValueError, ArithmeticError) as exc:  # a size whose square over- or underflows
        raise ValidationError("domain", str(exc)) from exc

    tensions_raw = take("tensions")
    if tensions_raw is None:
        raise ValidationError("tensions", "missing")
    vals = _count("tensions", tensions_raw, 3)
    try:
        SurfaceTensions(vals)
    except TensionsDegenerate as exc:
        raise ValidationError("tensions", str(exc)) from exc

    cfg = RunConfig(domain_type=dtype, domain_params=params, tensions=vals)
    for key, (attr, conv, positive) in SCALAR_KEYS.items():
        raw = take(key)
        if raw is None:
            continue
        try:
            val = conv(raw)
        except ValueError as exc:
            raise ValidationError(key, f"cannot parse {raw!r}") from exc
        if not math.isfinite(val):
            raise ValidationError(key, f"must be finite, got {val}")
        if positive and val <= 0:
            raise ValidationError(key, f"must be positive, got {val}")
        setattr(cfg, attr, val)
    if cfg.n < 8:
        raise ValidationError("n", f"need at least 8 nodes per branch, got {cfg.n}")
    guess_p = take("guess.p")
    if guess_p is not None:
        cfg.guess_p = _count("guess.p", guess_p, 2)
    cfg.perturbation_type = ptype = take("perturbation.type", cfg.perturbation_type)
    if ptype not in ("cosine", "eigenmode"):
        raise ValidationError("perturbation.type", f"unknown type {ptype!r}")
    for i in range(3):
        raw = take(f"perturbation.coefficients.{i + 1}")
        if raw is not None:
            cfg.perturbation_coefficients[i] = _floats(
                f"perturbation.coefficients.{i + 1}", raw)
    cfg.output = take("output", cfg.output)
    cfg.network = take("network")
    return cfg
