"""Command-line front end.

    evcorner detect  --in events.csv --detector luvharris --out tags.csv
    evcorner filter  --in events.csv --out clean.csv --refractory-us 5000
    evcorner bench   --in events.csv --detectors luvharris,arc --mode throughput
    evcorner render  --tags tags.csv --mode trails --out-dir frames/
    evcorner pr      --tags tags.csv --gt scores.txt --out curve.csv
    evcorner convert --in events.txt --ts-unit s --out events.evb --to packed_binary
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .baselines import decision_parameter_sweep, process_chunked
from .bench import closing, measure_throughput, paced_replay
from .config import DETECTOR_NAMES, build_detector, load_config
from .errors import EvcError, InvalidParameter
from .evaluate import load_ground_truth, pr_curve
from .events import read_stream, read_tags, write_stream, write_tags
from .filters import refractory_filter, sp_filter
from .render import export_plot_data, render_tos, render_trails, save_frames
from .surfaces import TosSurface


def _load(path, fmt=None, ts_unit="us"):
    if fmt is None:
        fmt = "packed_binary" if str(path).endswith(".evb") else "csv"
    return read_stream(path, fmt, ts_unit)


def _options(args) -> dict:
    opts = load_config(args.config) if args.config else {}
    if args.threshold is not None:
        opts["threshold_tr"] = args.threshold
    return opts


def cmd_detect(args) -> int:
    stream = _load(args.infile, ts_unit=args.ts_unit)
    with closing(build_detector(args.detector, stream.geometry, _options(args))) as det:
        # feed in chunks so batch-oriented pipelines see live-sized backlogs
        tags = process_chunked(det, stream)
    write_tags(tags, args.out)
    print(f"{args.detector}: {tags.corner_count()}/{len(tags)} corner events -> {args.out}")
    return 0


def cmd_filter(args) -> int:
    stream = _load(args.infile, ts_unit=args.ts_unit)
    n0 = len(stream)
    if args.refractory_us:
        stream = refractory_filter(stream, args.refractory_us)
    if args.sp_window_us:
        stream = sp_filter(stream, args.sp_window_us, args.sp_neighborhood)
    write_stream(stream, args.out, args.format)
    print(f"kept {len(stream)}/{n0} events -> {args.out}")
    return 0


def cmd_bench(args) -> int:
    stream = _load(args.infile, ts_unit=args.ts_unit)
    names = [n.strip() for n in args.detectors.split(",")]
    opts = _options(args)
    if args.mode == "throughput":
        print(f"{'detector':<12} {'Mev/s':>8}  {'spread':>8}  runs")
        for name in names:
            res = measure_throughput(
                lambda name=name: build_detector(name, stream.geometry, opts),
                stream, runs=args.runs, budget_s=args.budget_s,
            )
            rates = " ".join(f"{r / 1e6:.3f}" for r in res.rates)
            print(f"{name:<12} {res.median_rate / 1e6:>8.3f}  {res.spread / 1e6:>8.3f}  [{rates}]")
    else:
        for name in names:
            with closing(build_detector(name, stream.geometry, opts)) as det:
                trace = paced_replay(det, stream, packet_us=args.packet_us)
            out = f"{args.out_prefix}{name}_delay.csv"
            export_plot_data(trace, out)
            print(f"{name}: max delay {trace.delay_us.max() / 1e3:.1f} ms -> {out}")
    return 0


def cmd_render(args) -> int:
    if args.mode == "tos" and not (args.infile and args.out):
        raise InvalidParameter("render --mode tos needs --in and --out")
    if args.mode == "trails" and not args.tags:
        raise InvalidParameter("render --mode trails needs --tags")
    if args.mode == "tos":
        stream = _load(args.infile, ts_unit=args.ts_unit)
        surface = TosSurface(stream.geometry, k_tos=args.k_tos)
        surface.update_many(stream.x, stream.y)
        render_tos(surface, args.out)
        print(f"TOS image -> {args.out}")
    else:
        tags = read_tags(args.tags)
        frames = render_trails(tags, window_us=args.window_us)
        paths = save_frames(frames, args.out_dir)
        print(f"{len(paths)} trail frames -> {args.out_dir}")
    return 0


def cmd_pr(args) -> int:
    stream = _load(args.infile, ts_unit=args.ts_unit)
    gt = load_ground_truth(args.gt, stream, corner_fraction=args.corner_fraction)
    with closing(build_detector(args.detector, stream.geometry, _options(args))) as det:
        sweep = decision_parameter_sweep(det, stream, n_points=args.n_points)
    curve = pr_curve(sweep, gt, detector=args.detector)
    export_plot_data(curve, args.out)
    print(f"{len(curve.points)} PR points -> {args.out}")
    return 0


def cmd_convert(args) -> int:
    stream = _load(args.infile, fmt=args.from_format, ts_unit=args.ts_unit)
    write_stream(stream, args.out, args.to_format)
    print(f"{len(stream)} events -> {args.out} ({args.to_format})")
    return 0


def _add_common(p, detector_options=True):
    p.add_argument("--in", dest="infile", required=True, help="event file (csv or .evb)")
    p.add_argument("--ts-unit", choices=["us", "s"], default="us",
                   help="timestamp unit of CSV input")
    if detector_options:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--threshold", type=float, help="override corner threshold")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="evcorner",
                                 description="event-camera corner detection toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="tag corner events")
    _add_common(p)
    p.add_argument("--detector", choices=DETECTOR_NAMES, default="luvharris")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("filter", help="refractory / salt-and-pepper pre-filtering")
    _add_common(p, detector_options=False)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "packed_binary"], default="csv")
    p.add_argument("--refractory-us", type=int, default=5_000)
    p.add_argument("--sp-window-us", type=int, default=0, help="0 disables")
    p.add_argument("--sp-neighborhood", type=int, default=1)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("bench", help="throughput / delay measurement")
    _add_common(p)
    p.add_argument("--detectors", default="luvharris,arc,fast,eharris")
    p.add_argument("--mode", choices=["throughput", "delay"], default="throughput")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--budget-s", type=float, default=4.0)
    p.add_argument("--packet-us", type=int, default=1_000)
    p.add_argument("--out-prefix", default="")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="TOS image or corner-trail frames")
    p.add_argument("--mode", choices=["tos", "trails"], default="trails")
    p.add_argument("--in", dest="infile", help="event file (tos mode)")
    p.add_argument("--ts-unit", choices=["us", "s"], default="us")
    p.add_argument("--tags", help="tag file (trails mode)")
    p.add_argument("--k-tos", type=int, default=3)
    p.add_argument("--window-us", type=int, default=100_000)
    p.add_argument("--out", help="output image (tos mode)")
    p.add_argument("--out-dir", default="frames", help="frame directory (trails mode)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("pr", help="precision-recall curve against ground truth")
    _add_common(p)
    p.add_argument("--detector", choices=DETECTOR_NAMES, default="luvharris")
    p.add_argument("--gt", required=True, help="ground-truth score file")
    p.add_argument("--corner-fraction", type=float, default=0.2)
    p.add_argument("--n-points", type=int, default=50)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pr)

    p = sub.add_parser("convert", help="convert between event file formats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ts-unit", choices=["us", "s"], default="us")
    p.add_argument("--from", dest="from_format", choices=["csv", "packed_binary"], default=None)
    p.add_argument("--to", dest="to_format", choices=["csv", "packed_binary"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (EvcError, OSError) as e:  # OSError: a file that cannot be read or written
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
