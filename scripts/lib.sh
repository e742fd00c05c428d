# lib.sh — shared setup for the smoke scripts; source it with
#   . "$(dirname "$0")/lib.sh"
#
# It sets WORK, the scratch dir, and KEEP_WORK. With SMOKE_WORK set the
# scratch dir is that directory and survives the run (CI points it at a
# directory uploaded as an artifact on failure); without it a mktemp dir
# is used, and the sourcing script's cleanup removes it unless
# KEEP_WORK=1.

if [ -n "${SMOKE_WORK:-}" ]; then
    WORK=$SMOKE_WORK
    mkdir -p "$WORK"
    KEEP_WORK=1
else
    WORK=$(mktemp -d)
    KEEP_WORK=0
fi

# fetch prints the body of a GET, failing on an HTTP error.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}
