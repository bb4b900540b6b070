#!/bin/sh
# Stale-name check for the prose docs: every backticked `Type::member` in
# DESIGN.md and README.md (inline code spans; fenced blocks are skipped) must
# name a type that some .rs file under crates/ or shims/ declares (struct,
# enum, trait, type or union), and each member must appear as a word in a
# file that declares the type or holds an `impl … Type`. `Type` is an
# identifier starting with a capital letter; a member may be a brace list,
# `Type::{a, b}`, and each name in it is checked.
#
# A crate-qualified path in the same spans, `krate::module::Item` whose
# first segment is the lib name of a workspace crate (crates/ and shims/),
# is followed through that crate: each segment before the last must be a
# `mod` of the module the path has reached (its file `src/lib.rs`,
# `a.rs` or `a/mod.rs`), and the last — or the first capitalized one, the
# rest being `Type::member` — must be declared in that module's file or
# named by a `pub use` there (at the crate root, an exported macro
# counts). A brace list, `krate::module::{A, b}`, is checked name by name.
#
# Prints one line per unknown name and exits 1 if there is any. Run from
# anywhere; pass a checkout's root to check another tree.
set -eu
cd "${1:-$(dirname "$0")/..}"

# `T<TAB>file:line<TAB>Type<TAB>member` for every Type::member and
# `P<TAB>file:line<TAB>path` for every lowercase-led path in an inline span.
refs() {
    awk '
        FNR == 1 { inside = 0; fence = 0 }
        /^[[:space:]]*```/ { fence = !fence; next }
        fence { next }
        {
            line = $0
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                if (c == "`") {
                    if (inside) emit(span, at)
                    else { span = ""; at = FILENAME ":" FNR }
                    inside = !inside
                } else if (inside) span = span c
            }
            if (inside) span = span " "
        }
        # A brace list names each of its members by its leading word
        # (`Versioning::{Single, Multi { k }}`); a member followed by `*`
        # is a pattern (`Machine::set_*`), not a name.
        function emit(s, where,    pre, ref, type, member, n, k, names) {
            paths(s, where)
            while (match(s, /[A-Z][A-Za-z0-9_]*::(\{[^}]*\}|[A-Za-z_][A-Za-z0-9_]*\*?)/)) {
                pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
                ref = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                if (pre ~ /[A-Za-z0-9_]/ || ref ~ /\*$/) continue
                type = ref; sub(/::.*/, "", type)
                if (type == "Self") continue
                member = ref; sub(/^[^:]*::\{?/, "", member)
                n = split(member, names, ",")
                for (k = 1; k <= n; k++) {
                    sub(/^ */, "", names[k])
                    if (match(names[k], /^[A-Za-z_][A-Za-z0-9_]*/))
                        printf "T\t%s\t%s\t%s\n", where, type, substr(names[k], 1, RLENGTH)
                }
            }
        }
        function paths(s, where,    pre, ref, stem, n, k, names) {
            while (match(s, /[a-z_][a-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*::(\{[^}]*\}|[A-Za-z_][A-Za-z0-9_]*)/)) {
                pre = RSTART > 1 ? substr(s, RSTART - 1, 1) : ""
                ref = substr(s, RSTART, RLENGTH)
                s = substr(s, RSTART + RLENGTH)
                if (pre ~ /[A-Za-z0-9_:]/) continue
                if (ref !~ /\{/) { printf "P\t%s\t%s\n", where, ref; continue }
                stem = ref; sub(/\{.*/, "", stem)
                member = ref; sub(/^[^{]*\{/, "", member); sub(/\}$/, "", member)
                n = split(member, names, ",")
                for (k = 1; k <= n; k++) {
                    sub(/^ */, "", names[k])
                    if (match(names[k], /^[A-Za-z_][A-Za-z0-9_]*/))
                        printf "P\t%s\t%s%s\n", where, stem, substr(names[k], 1, RLENGTH)
                }
            }
        }
    ' DESIGN.md README.md
}

# The source root of the workspace crate whose lib name is $1, if any.
crate_src() {
    for manifest in crates/*/Cargo.toml shims/*/Cargo.toml; do
        name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)
        if [ "$(echo "$name" | tr - _)" = "$1" ]; then
            echo "${manifest%/Cargo.toml}/src"
            return
        fi
    done
}

# Whether the module file $1 declares $2 (or has it in a `pub use`).
declares() {
    grep -qE "\b(fn|struct|enum|trait|type|union|const|static|mod)[[:space:]]+$2\b" "$1" ||
        tr '\n' ' ' <"$1" | grep -oE 'pub use [^;]*;' | grep -qw -- "$2"
}

# Checks one crate-qualified path; prints why it is stale, if it is.
check_path() {
    where=$1
    src=$(crate_src "${2%%::*}")
    [ -n "$src" ] || return 0
    file=$src/lib.rs
    dir=$src
    rest=${2#*::}
    while :; do
        seg=${rest%%::*}
        case $seg in
        [A-Z]*) last=1 ;;
        *) [ "$seg" = "$rest" ] && last=1 || last=0 ;;
        esac
        if [ "$last" = 1 ]; then
            if ! declares "$file" "$seg" &&
                ! { [ "$file" = "$src/lib.rs" ] &&
                    grep -rh -A1 --include='*.rs' '#\[macro_export\]' "$src" |
                    grep -qE "macro_rules![[:space:]]*$seg\b"; }; then
                echo "$where: \`$2\`: \`$seg\` is not declared or \`pub use\`d in $file"
                return 1
            fi
            return 0
        fi
        if ! grep -qE "^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+$seg\b" "$file"; then
            echo "$where: \`$2\`: \`$seg\` is not a module of $file"
            return 1
        fi
        if [ -f "$dir/$seg.rs" ]; then file=$dir/$seg.rs; else file=$dir/$seg/mod.rs; fi
        dir=$dir/$seg
        rest=${rest#*::}
    done
}

decl='(struct|enum|trait|type|union)[[:space:]]+'
bad=0
for ref in $(refs | grep '^P' | cut -f2- | tr '\t' '|'); do
    check_path "${ref%%|*}" "${ref#*|}" || bad=1
done
for ref in $(refs | grep '^T' | cut -f2- | tr '\t' '|'); do
    where=${ref%%|*}
    rest=${ref#*|}
    type=${rest%%|*}
    member=${rest#*|}
    if ! grep -rqE --include='*.rs' "$decl$type\b" crates shims; then
        echo "$where: \`$type::$member\`: no type \`$type\` is declared in crates/ or shims/"
        bad=1
        continue
    fi
    files=$(grep -rlE --include='*.rs' "$decl$type\b|impl\b.*\b$type\b" crates shims)
    # shellcheck disable=SC2086 # one word per file path
    if ! grep -qw -- "$member" $files; then
        echo "$where: \`$type::$member\`: \`$member\` is in no file that declares or implements \`$type\`"
        bad=1
    fi
done
exit "$bad"
