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
violate a precondition raise ValidationError naming the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .domains import ImplicitDomain, make_domain
from .errors import ParseError, TensionsDegenerate, ValidationError
from .tensions import SurfaceTensions

_KNOWN_KEYS = {
    "domain.type",
    "domain.radius",
    "domain.center",
    "domain.semi_axes",
    "domain.coefficients",
    "domain.bounding_box",
    "tensions",
    "n",
    "dt",
    "t_end",
    "output_every",
    "newton_tol",
    "newton_max",
    "det_m_floor",
    "amplitude_cap",
    "spectrum_n",
    "gauge",
    "guess.p",
    "guess.phi",
    "perturbation.type",
    "perturbation.amplitude",
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
    newton_tol: float = 1e-10
    newton_max: int = 20
    det_m_floor: float = 0.5
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


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def parse_config(text: str) -> RunConfig:
    """Parse and validate; see module docstring for the format."""
    entries: dict[str, tuple[int, str]] = {}
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

    def take(key, default=None):
        return entries.pop(key, (None, default))[1]

    def number(key, conv, default=None, positive=False):
        raw = take(key)
        if raw is None:
            return default
        try:
            val = conv(raw)
        except ValueError as exc:
            raise ValidationError(key, f"cannot parse {raw!r}") from exc
        if positive and val <= 0:
            raise ValidationError(key, f"must be positive, got {val}")
        return val

    # domain block
    dtype = take("domain.type")
    if dtype is None:
        raise ValidationError("domain.type", "missing")
    params: dict = {}
    try:
        if dtype == "circle":
            params["radius"] = float(take("domain.radius", "1.0"))
            center = take("domain.center")
            if center is not None:
                params["center"] = tuple(_floats(center))
        elif dtype == "ellipse":
            axes = take("domain.semi_axes")
            if axes is None:
                raise ValidationError("domain.semi_axes", "missing for ellipse")
            params["semi_axes"] = tuple(_floats(axes))
        elif dtype == "polynomial":
            coefs = take("domain.coefficients")
            if coefs is None:
                raise ValidationError("domain.coefficients", "missing for polynomial")
            terms = []
            for chunk in coefs.split(";"):
                vals = _floats(chunk)
                if len(vals) != 3:
                    raise ValidationError(
                        "domain.coefficients", f"term {chunk.strip()!r} is not 'i j c'"
                    )
                terms.append((int(vals[0]), int(vals[1]), vals[2]))
            params["coefficients"] = terms
        else:
            raise ValidationError("domain.type", f"unknown type {dtype!r}")
    except ValueError as exc:
        raise ValidationError("domain", str(exc)) from exc
    box = take("domain.bounding_box")
    if box is not None:
        vals = _floats(box)
        if len(vals) != 4:
            raise ValidationError("domain.bounding_box", "expected xmin, xmax, ymin, ymax")
        if dtype == "polynomial":
            params["bounding_box"] = tuple(vals)

    tensions_raw = take("tensions")
    if tensions_raw is None:
        raise ValidationError("tensions", "missing")
    vals = _floats(tensions_raw)
    if len(vals) != 3:
        raise ValidationError("tensions", "expected three values")
    try:
        SurfaceTensions(tuple(vals))
    except TensionsDegenerate as exc:
        raise ValidationError("tensions", str(exc)) from exc

    cfg = RunConfig(domain_type=dtype, domain_params=params, tensions=tuple(vals))
    cfg.n = number("n", int, cfg.n, positive=True)
    if cfg.n < 8:
        raise ValidationError("n", f"need at least 8 nodes per branch, got {cfg.n}")
    cfg.dt = number("dt", float, None, positive=True)
    cfg.t_end = number("t_end", float, cfg.t_end, positive=True)
    cfg.output_every = number("output_every", int, cfg.output_every, positive=True)
    cfg.newton_tol = number("newton_tol", float, cfg.newton_tol, positive=True)
    cfg.newton_max = number("newton_max", int, cfg.newton_max, positive=True)
    cfg.det_m_floor = number("det_m_floor", float, cfg.det_m_floor)
    cfg.amplitude_cap = number("amplitude_cap", float, cfg.amplitude_cap, positive=True)
    cfg.spectrum_n = number("spectrum_n", int, cfg.spectrum_n, positive=True)
    cfg.gauge = number("gauge", float, None)
    guess_p = take("guess.p")
    if guess_p is not None:
        vals = _floats(guess_p)
        if len(vals) != 2:
            raise ValidationError("guess.p", "expected two values")
        cfg.guess_p = tuple(vals)
    cfg.guess_phi = number("guess.phi", float, cfg.guess_phi)
    ptype = take("perturbation.type")
    if ptype is not None:
        if ptype not in ("cosine", "eigenmode"):
            raise ValidationError("perturbation.type", f"unknown type {ptype!r}")
        cfg.perturbation_type = ptype
    cfg.perturbation_amplitude = number(
        "perturbation.amplitude", float, cfg.perturbation_amplitude, positive=True
    )
    for i in range(3):
        raw = take(f"perturbation.coefficients.{i + 1}")
        if raw is not None:
            cfg.perturbation_coefficients[i] = _floats(raw)
    out = take("output")
    if out is not None:
        cfg.output = out
    cfg.network = take("network")
    return cfg
