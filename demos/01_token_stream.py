"""Walk the lexer output for a small translation unit.

The analyzer never builds an AST.  Everything downstream works on this
token list, so the demo pokes at it by index directly.
"""

from zkleak import tokenize

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
for tok in stream:
    print(f"{tok.index:>3}  {tok.line:>4}  {tok.kind.name:<11}  {tok.text}")
print()

# Each token knows its own index, so its neighbours are one step away:
# that is what lets the matcher and the event extractor peek around a
# hit without re-scanning.  ``get`` answers None past either end.
t = stream[stream.texts().index("malloc")]
print("around the malloc token:")
print("  prev:", stream.get(t.index - 1).text)
print("  self:", t.text)
print("  next:", stream.get(t.index + 1).text)
print("  before the first token:", stream.get(-1))
