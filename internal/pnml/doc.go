// Package pnml imports and exports Petri nets in PNML, the XML
// interchange format of ISO/IEC 15909-2, restricted to the
// place/transition (P/T) subset the exploration engines model: places
// with non-negative integer initial markings, transitions, and weighted
// ordinary arcs. Everything beyond that subset — inhibitor / reset /
// read arc types, colored (high-level) token annotations, reference
// nodes, modules — is rejected at parse time with a position-bearing
// error, never silently dropped: an imported net either means exactly
// what the engines will explore, or it does not load.
//
// The package is the bridge between external Petri-net suites (Model
// Checking Contest models and the like) and the quasi-static scheduling
// engine's native petri.Net: Parse adapts a PNML document onto the
// existing arena/ECS machinery (places and transitions numbered in
// document order, arc weights accumulated per (place, transition)
// pair), and Export renders any petri.Net as deterministic canonical
// PNML, with the round-trip property that export → import → export is a
// byte-for-byte fixed point. Analyze runs the reachability and
// place-bound analysis the qssbatch -pnml mode exposes, inline and
// all-hot or frozen like the FlowC flow's searches, and Fingerprint
// condenses a ReachResult into the hash the pnml-conformance CI job
// compares across inline, frozen and worker-process explorations
// (petri.Net.ExploreDist).
package pnml
