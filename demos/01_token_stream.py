"""Walk the lexer output for a small translation unit.

The analyzer never builds an AST.  Everything downstream works on this
token stream: parallel columns in which a token is its index, so the
demo pokes at it by index directly.
"""

from zkleak import tokenize
from zkleak.scopes import text_at

SOURCE = """\
#include <stdlib.h>
/* block comment, skipped */
int main(void) {
    char *p = NULL;  // trailing comment, skipped
    p = (char *) malloc(16);
    free(p);
    return 0;
}
"""

stream = tokenize(SOURCE, "hello.c")

print("file:", stream.file)
print("physical lines:", stream.loc_count)
print("tokens kept:", len(stream))
print()

# Directives and comments never become tokens; punctuation is split
# apart so patterns can anchor on single glyphs.
print("idx  line  kind         text")
for i, (text, kind, line) in enumerate(zip(stream.text, stream.kind, stream.line)):
    print(f"{i:>3}  {line:>4}  {kind.name:<11}  {text}")
print()

# A token is its index, so its neighbours are one step away: that is
# what lets the matcher and the event extractor peek around a hit
# without re-scanning.  ``text_at`` answers "" past either end.
t = stream.text.index("malloc")
print("around the malloc token:")
print("  prev:", text_at(stream, t - 1))
print("  self:", stream.text[t])
print("  next:", text_at(stream, t + 1))
print("  before the first token:", text_at(stream, -1) or None)
