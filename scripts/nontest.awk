# Prints every line of Rust source outside test code, as FILE:LINE: TEXT.
# Test code is each `#[cfg(test)]` item: from the attribute to the line
# that closes the first brace block opened after it. Shared by the
# `codec` stage of scripts/check.sh and by scripts/loc.sh.
#
#   awk -f scripts/nontest.awk FILE.rs...
FNR == 1 { skip = 0 }
!skip && /#\[cfg\(test\)\]/ { skip = 1; depth = 0; open = 0; next }
skip {
    o = gsub(/\{/, "{"); c = gsub(/\}/, "}"); depth += o - c
    if (o) open = 1
    if (open && depth <= 0) skip = 0
    next
}
{ print FILENAME ":" FNR ": " $0 }
