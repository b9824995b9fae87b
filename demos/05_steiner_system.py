# Building a partial (k, k-1)-system that is rich in family copies.
#
# The blow-up replaces each chain vertex by a class of m vertices and
# each connector by one vertex per transversal, so every (k-1)-subset
# still lies in at most one edge.  Copies of the blow-up are then glued
# onto the lines of a projective plane; two lines share only one point,
# so the union stays a partial system while covering every point pair.

from treeramsey import (
    assemble_h,
    build_blowup,
    build_projective_plane,
    is_partial_steiner,
    next_prime_at_least,
    validate_projective_plane,
)

system = build_blowup(3, 3, (1, 2), m=2)
print(f"blow-up: {system.vertex_count} vertices, {system.edge_count} edges")
for J in system.omega:
    print(f"  class for J={J}: vertices {list(system.block_range(J))}")
print("partial (3,2)-system:", is_partial_steiner(system.edges, system.k, 2) is None)

# One transversal, its unique extension, and the resulting edge.
z = (3, 5)  # one vertex from each of the classes of J = (2, 3)
v = system.extend_transversal((2, 3), z)
print(f"transversal {z} of (2,3) extends through vertex {v}")

p = next_prime_at_least(system.vertex_count)
print(f"\nsmallest prime at least {system.vertex_count}: {p}")
plane = build_projective_plane(p)
validate_projective_plane(plane)
print(f"plane of order {p}: {plane.num_points} points, "
      f"{len(plane.lines)} lines of {p + 1} points")

glued = assemble_h(system, plane, seed=0)
print(f"\nglued system: {glued.v} vertices, {len(glued.edges)} edges "
      f"({len(plane.lines)} lines x {system.edge_count} edges, no collisions)")
print("partial (3,2)-system:", is_partial_steiner(glued.edges, glued.k, 2) is None)

# note: the default class size is n**(k+3); the toy m=2 keeps every
# structure small enough to validate exhaustively
edge, sources = next(iter(sorted(glued.provenance.items())))
print(f"edge {edge} came from line {sources[0][0]} as the copy of {sources[0][1]}")
