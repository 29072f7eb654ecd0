#!/usr/bin/env bash
# Run the suite twice on the same code and fail if any end-to-end metric
# moves by more than its bound, or any exact count differs.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --selfcheck "$@"
