#!/usr/bin/env bash
# mutants.sh — the mutant corpus: evidence that every contract the repo
# enforces is still enforced by something.
#
# Each scripts/mutants/*.patch is one small edit to the real tree that breaks
# one contract. Its header names the checks expected to kill it:
#
#   Mutant:  <name>
#   Breaks:  <what the edit breaks>
#   Killers: <killer> [<killer> ...]
#
# where a killer is one of
#
#   build                   go build ./... fails
#   vet                     go vet fails on a package the patch touches
#   test:<pkg>:<Test>       go test -run '^<Test>$' ./<pkg> fails
#   test-race:<pkg>:<Test>  the same under -race
#
# The script copies the tree once to a throwaway directory, then for each
# patch: applies it, checks the mutant builds (unless build is a named
# killer — a mutant that fails to compile proves nothing about a test), runs
# every named killer, and reverses the patch. It prints a kill matrix, one
# row per mutant and killer, and exits 1 when a mutant survives every killer,
# when a named killer stays silent, or when a patch no longer applies.
#
# Run from anywhere:
#
#   ./scripts/mutants.sh              # every patch
#   ./scripts/mutants.sh goleak-worker locksafe-lock-copy
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
if [ -d .git ]; then
    git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf - | tar -x -C "$work"
else
    tar --exclude=.git -cf - . | tar -x -C "$work"
fi

patches=()
if [ $# -gt 0 ]; then
    for name in "$@"; do patches+=("$root/scripts/mutants/$name.patch"); done
else
    patches=("$root"/scripts/mutants/*.patch)
fi

log="$work/.log"
failed=0
# run_killer runs one killer against the applied mutant and reports "killed",
# "silent" or "error: <why>" on stdout.
run_killer() {
    local killer=$1 pkgs=$2
    case $killer in
    build)
        if go build ./... >"$log" 2>&1; then echo silent; else echo killed; fi ;;
    vet)
        # shellcheck disable=SC2086
        if go vet $pkgs >"$log" 2>&1; then echo silent; else echo killed; fi ;;
    test:* | test-race:*)
        local spec=${killer#*:} race=
        [ "${killer%%:*}" = test-race ] && race=-race
        local pkg=${spec%%:*} name=${spec#*:}
        if go test $race -count=1 -run "^${name}\$" "./$pkg" >"$log" 2>&1; then
            echo silent
        elif grep -qE '\[(build|setup) failed\]' "$log"; then
            echo "error: the test does not compile against the mutant"
        elif grep -qE "^(--- FAIL|panic:|WARNING: DATA RACE)" "$log" || grep -q "FAIL	stochstream/$pkg" "$log"; then
            echo killed
        else
            echo "error: go test failed without a test failure"
        fi ;;
    *)
        echo "error: unknown killer" ;;
    esac
}

printf '%-34s %-62s %s\n' MUTANT KILLER RESULT
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    killers=$(sed -n 's/^Killers:[[:space:]]*//p' "$patch")
    if [ -z "$killers" ]; then
        printf '%-34s %-62s %s\n' "$name" - "error: no Killers header"
        failed=1
        continue
    fi
    if ! (cd "$work" && git apply "$patch") 2>"$log"; then
        printf '%-34s %-62s %s\n' "$name" - "error: patch does not apply"
        sed 's/^/    /' "$log"
        failed=1
        continue
    fi
    pkgs=$(sed -n 's|^+++ b/\(.*\)/[^/]*$|./\1|p' "$patch" | sort -u | tr '\n' ' ')
    killed=0
    if [[ " $killers " != *" build "* ]] && ! (cd "$work" && go build ./...) >"$log" 2>&1; then
        printf '%-34s %-62s %s\n' "$name" - "error: the mutant does not build"
        sed 's/^/    /' "$log"
        failed=1
    else
        for killer in $killers; do
            result=$(cd "$work" && run_killer "$killer" "$pkgs")
            printf '%-34s %-62s %s\n' "$name" "$killer" "$result"
            case $result in
            killed) killed=1 ;;
            silent) failed=1 ;;
            *) failed=1; sed 's/^/    /' "$log" | tail -n 20 ;;
            esac
        done
        if [ $killed -eq 0 ]; then
            printf '%-34s %-62s %s\n' "$name" - "SURVIVED"
        fi
    fi
    (cd "$work" && git apply -R "$patch")
done

if [ $failed -ne 0 ]; then
    echo "mutants: FAILED (a mutant survived, a named killer stayed silent, or a patch is stale)"
    exit 1
fi
echo "mutants: every mutant killed by every named killer"
