"""Key=value config files and detector construction by name.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Recognised keys, the detector options of ``detect``, ``bench`` and ``pr``
(the detector itself is chosen on the command line):

    k_tos, t_tos        TOS neighbourhood half-width / zero-threshold
    block_size          Harris aggregation window (odd)
    sobel_aperture      Sobel kernel size (odd)
    kappa               Harris k
    threshold_tr        corner decision threshold on the raw response
    mode                alternating (fresher LUT, a batch waits about one
                        regeneration) | dual_thread (a worker thread
                        regenerates the LUT; no wait, older LUT)
    window_us           eharris binary-window duration
    max_angle_deg       fast/arc acceptance angle
"""

from __future__ import annotations

from .baselines import ArcDetector, ArcRingConfig, EHarrisConfig, EHarrisDetector, FastDetector
from .errors import InvalidParameter
from .events import SensorGeometry
from .harris import HarrisParams
from .luvharris import LuvHarrisConfig, LuvHarrisDetector

_INT_KEYS = {"k_tos", "t_tos", "block_size", "sobel_aperture", "window_us"}
_FLOAT_KEYS = {"kappa", "threshold_tr", "max_angle_deg"}
_STR_KEYS = {"mode"}

DETECTOR_NAMES = ("luvharris", "eharris", "fast", "arc")


def load_config(path) -> dict:
    out: dict = {}
    with open(path, "r") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameter(f"line {lineno}: expected key = value, got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = _coerce(key, value, lineno)
    return out


def _coerce(key: str, value: str, lineno: int):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _STR_KEYS:
            return value
    except ValueError:
        raise InvalidParameter(f"line {lineno}: bad value {value!r} for {key}") from None
    raise InvalidParameter(f"line {lineno}: unknown key {key!r}")


def harris_params_from(options: dict) -> HarrisParams:
    return HarrisParams(
        block_size=options.get("block_size", 7),
        sobel_aperture=options.get("sobel_aperture", 5),
        kappa=options.get("kappa", 0.04),
    )


def luvharris_config_from(options: dict) -> LuvHarrisConfig:
    return LuvHarrisConfig(
        k_tos=options.get("k_tos", 3),
        t_tos=options.get("t_tos"),
        harris=harris_params_from(options),
        threshold_tr=options.get("threshold_tr", 0.0),
        mode=options.get("mode", "alternating"),
    )


def build_detector(name: str, geometry: SensorGeometry, options: dict | None = None):
    """Streaming detector by name. luvharris runs the configured ``mode``;
    a ``dual_thread`` one starts its worker on the first ``process`` call,
    so close it when done (``bench.closing`` closes any detector)."""
    options = options or {}
    if name == "luvharris":
        return LuvHarrisDetector(geometry, luvharris_config_from(options))
    if name == "eharris":
        return EHarrisDetector(geometry, EHarrisConfig(
            window_us=options.get("window_us", 10_000),
            harris=harris_params_from(options),
            threshold_tr=options.get("threshold_tr", 0.0),
        ))
    if name in ("fast", "arc"):
        cfg = ArcRingConfig(max_angle_deg=options.get("max_angle_deg", 144.0))
        cls = FastDetector if name == "fast" else ArcDetector
        return cls(geometry, cfg)
    raise InvalidParameter(f"unknown detector {name!r}; choose from {DETECTOR_NAMES}")
