#!/usr/bin/env python3
"""Regenerate data/delta_weight12.jsonl from the exact level-one q-series."""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bergman.forms import delta_form, save_forms


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--coefficients", type=int, default=200)
    parser.add_argument("--out", default=str(
        pathlib.Path(__file__).resolve().parents[1]
        / "data" / "delta_weight12.jsonl"))
    args = parser.parse_args()
    form = delta_form(m_max=args.coefficients)
    save_forms([form], args.out)
    print(f"wrote {args.coefficients} coefficients to {args.out}")


if __name__ == "__main__":
    main()
