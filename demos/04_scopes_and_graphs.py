# Structure recovery without an AST: scope tree, control flow graph,
# function call graph, and ring (mutual recursion) detection.

from zkleak import (build_cfg, build_fcg, build_scope_tree, dump_cfg,
                    dump_fcg, dump_scopes, find_rings, tokenize)

SOURCE = """\
int limit ;

int clamp ( int v ) {
    if ( v > limit ) {
        v = limit ;
    }
    return v ;
}

int spin ( int n ) {
    while ( n > 0 ) {
        n = clamp ( n - 1 ) ;
    }
    return n ;
}

int odd ( int n ) ;
int even ( int n ) { if ( n ) { return odd ( n - 1 ) ; } return 1 ; }
int odd ( int n ) { if ( n ) { return even ( n - 1 ) ; } return 0 ; }
"""

stream = tokenize(SOURCE, "demo.c")
root = build_scope_tree(stream)

print("scope tree (kind name [lines]):")
print(dump_scopes(root, stream))
print()

# Every identifier that names a declared variable carries the var id of
# the declaration visible where it stands, unique in the file, and
# stream.var(id) gives that declaration back (the declarator token in the
# parameter list stands outside the body and itself stays id 0).
print("uses of 'v' inside clamp:")
for text, var_id, line in zip(stream.text, stream.var_id, stream.line):
    if text == "v" and var_id:
        print(f"  line {line}: var id {var_id}, "
              f"declared as {stream.var(var_id).type_text} {text}")
print()

# --- control flow ------------------------------------------------------

spin = next(s for s in root.children if s.name == "spin")
cfg = build_cfg(spin, stream)
print("cfg for spin (the loop body is nested under its head):")
print(dump_cfg(cfg))
print()

# --- calls and rings ---------------------------------------------------

fcg = build_fcg([(root, stream)])
print("call graph edges:")
print(dump_fcg(fcg))
print()

rings = find_rings(fcg)
print("rings (strongly connected call groups):")
for ring in rings:
    print("  " + " <-> ".join(f.func_name for f in ring))
print("even/odd call each other, so their summaries are not trusted.")
