#!/bin/sh
# Build dfbench (and the band worker next to it) from source, then hand over to it.
# The arguments are dfbench's: --workload <name> --seed <n> --seconds <s> --trace <0|1>,
# or run | trace | repeat. See README.md in this directory.
set -eu
here=$(dirname "$0")
cargo build --release --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/dfbench" "$@"
