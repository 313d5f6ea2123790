#!/usr/bin/env python
"""Fig 7: GIGA+ directory scaling under a Metarates create storm.

Clients with deliberately stale partition maps hammer one directory;
GIGA+ splits partitions independently and corrects clients lazily.

Run:  python examples/scalable_directory.py
"""

from repro.giga import run_storm


def main() -> None:
    n_clients, files_per_client = 16, 500
    print(
        f"{n_clients} clients x {files_per_client} creates into one directory\n"
    )
    header = (
        f"{'servers':>8}{'creates/s':>12}{'scaling':>9}{'partitions':>12}"
        f"{'splits':>8}{'redirects':>11}{'per create':>12}"
    )
    print(header)
    print("-" * len(header))
    base = None
    for n_servers in (1, 2, 4, 8, 16, 32):
        res = run_storm(n_servers, n_clients, files_per_client, lookups_per_client=0)
        if base is None:
            base = res.creates_per_s
        print(
            f"{n_servers:>8}{res.creates_per_s:>12.0f}{res.creates_per_s / base:>8.1f}x"
            f"{res.partitions:>12}{res.splits:>8}{res.redirects_create:>11}"
            f"{res.mean_redirects_create:>12.3f}"
        )
    print(
        "\nExpected shape (report Fig 7): throughput grows near-linearly\n"
        "with servers; stale clients are corrected in a bounded number of\n"
        "extra hops, so redirects stay a small constant per create."
    )


if __name__ == "__main__":
    main()
