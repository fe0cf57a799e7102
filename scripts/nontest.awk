# Prints every line of Rust source outside test code, as FILE:LINE: TEXT.
# Test code is each `#[cfg(test)]` item: from the attribute to the line
# that closes the first brace block opened after it. A file whose first
# line of code is the inner attribute `#![cfg(test)]` is test code as a
# whole, its leading comments included. Shared by the `codec` stage of
# scripts/check.sh and by scripts/loc.sh.
#
#   awk -f scripts/nontest.awk FILE.rs...
function flush(i) {
    for (i = 1; i <= n; i++) print head_lines[i]
    n = 0; head = 0
}
FNR == 1 { if (head) flush(); skip = 0; testfile = 0; head = 1 }
testfile { next }
# hold the leading comments and blank lines until the first line of code
# says whether the file is test code
head && /^[[:space:]]*(\/\/.*)?$/ { head_lines[++n] = FILENAME ":" FNR ": " $0; next }
head && /^[[:space:]]*#!\[cfg\(test\)\]/ { n = 0; head = 0; testfile = 1; next }
head { flush() }
!skip && /#\[cfg\(test\)\]/ { skip = 1; depth = 0; open = 0; next }
skip {
    o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c
    if (o) open = 1
    if (open && depth <= 0) skip = 0
    next
}
{ print FILENAME ":" FNR ": " $0 }
END { if (head) flush() }
