#!/bin/sh
# Stale-name check for the prose docs: every backticked `Type::member` in
# DESIGN.md and README.md (inline code spans; fenced blocks are skipped) must
# name a type that some .rs file under crates/ or shims/ declares (struct,
# enum, trait, type or union), and each member must appear as a word in a
# file that declares the type or holds an `impl … Type`. `Type` is an
# identifier starting with a capital letter; a member may be a brace list,
# `Type::{a, b}`, and each name in it is checked. Prints one line per
# unknown name and exits 1 if there is any. Run from anywhere; pass a
# checkout's root to check another tree.
set -eu
cd "${1:-$(dirname "$0")/..}"

# `file:line<TAB>Type<TAB>member` for every Type::member in an inline span.
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
                        printf "%s\t%s\t%s\n", where, type, substr(names[k], 1, RLENGTH)
                }
            }
        }
    ' DESIGN.md README.md
}

decl='(struct|enum|trait|type|union)[[:space:]]+'
bad=0
for ref in $(refs | tr '\t' '|'); do
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
