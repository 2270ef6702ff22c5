# Fuzzy token patterns: the unit of configuration for the whole checker.
#
# A pattern is a whitespace-separated list of units.  Literals match
# themselves, %var%/%type%/%num%/... match token classes, [...] matches
# a character set, and a|b (trailing bar allowed) matches alternatives.

from zkleak import builtin_patterns, compile_pattern, match_all, tokenize
from zkleak.scopes import build_scope_tree

print("built-in catalog:")
for label, pattern in builtin_patterns().items():
    print(f"  {label:<22} {pattern.source}")
print()

# --- matching and bindings -------------------------------------------------

code = "int q ; q = malloc ( 12 ) ; other = malloc ( n ) ;"
stream = tokenize(code, "snippet.c")
build_scope_tree(stream)  # gives q a var id; "other" is undeclared

pat = builtin_patterns()["alloc.malloc"]
print(f"pattern {pat.source!r} over: {code}")
for span in match_all(stream, pat):
    tok = span.bindings[0]  # the index of the token %var% bound
    print(f"  tokens [{span.first_p}:{span.end_p})  %var% -> "
          f"{stream.text[tok]!r} (var id {stream.var_id[tok]})")
print("(the undeclared 'other' is skipped: %var% wants a resolved name)")
print()

# --- user patterns ---------------------------------------------------------

# The same syntax extends the catalog from the command line
# (--patterns FILE with "label: pattern" lines).
custom = compile_pattern("%var% = xmalloc (", label="alloc.xmalloc")
wrapped = tokenize("buf = xmalloc ( 64 ) ;", "wrap.c")
hits = match_all(wrapped, custom)
print(f"custom {custom.source!r}: {len(hits)} hit, "
      f"binds {wrapped.text[hits[0].bindings[0]]!r}")

# Alternation with a trailing bar makes the unit optional.
opt = compile_pattern("return %var% ;|")
for text in ("return p ;", "return p )"):
    got = match_all(tokenize(text, "t.c"), opt)
    print(f"  {opt.source!r} vs {text!r}: "
          f"{[(s.first_p, s.end_p) for s in got]}")
