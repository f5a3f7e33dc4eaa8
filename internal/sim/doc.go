// Package sim provides a deterministic, cycle-based simulator for
// elaborated designs — with a two-state and a four-state (x-propagating)
// value domain — plus the expression evaluators shared with the SVA
// checker and the bounded model checker.
//
// # Execution plan
//
// Simulation runs on a compile-once, slot-indexed execution plan (Plan,
// built by PlanOf). At elaboration, internal/compile assigns every signal a
// dense integer slot; the planner lowers continuous assignments, always
// blocks and assertion-referenced expressions into slot-addressed
// evaluation closures built once per *compile.Design and cached on the
// design itself. Simulator state is a []uint64 slot array with generation-
// counted scratch buffers for blocking overlays and nonblocking commits, so
// the hot loop never re-walks the AST and never hashes a signal name. Trace
// rows are slot vectors, materialised to names only at the API boundary
// (Trace.Value, Trace.Format), and the SVA checker evaluates property terms
// through the plan's compiled closures (Trace.CompileExpr4).
//
// One plan machine, one statement and store layer and one expression form
// (plan.go) serve both value domains: a compiled expression yields a value
// word and an Unk word. The four-state domain runs over two parallel planes
// — Val (known bit values) and Unk (unknown-bit masks); in two-state the Unk
// planes are nil and every Unk word is 0, tested once per call or per slot,
// and a signal read picks its reader at build time, so the two-state reader
// never touches an Unk plane. A whole-signal assignment fuses its masked
// write into the assignment closure, one closure per write mode. Every
// kernel whose four-state formula, with nothing x, is the two-state one is
// written once (planCore): constants, signals, slices, concatenation,
// replication, $past, the sampled-value functions, if, case and every store.
// Only number, ternary, index, unary, binary and the reductions are per
// domain — x literals, the x-merge of ?:, an unknown index, the operators' x
// rules and div/mod by zero. The four-state lowering (plan4.go) is built
// lazily on the first four-state run, so the two-state plan, which is the
// formal checker's hot path, pays nothing for it. Both domains share one
// definition of the operator semantics (v4.go), and the interpretive
// Simulator remains the reference implementation for each: the
// differential tests plus the cross-engine fuzzer hold the two backends
// identical plane-for-plane through RunReferenceCtx, which no production
// path runs. The interpreter's expression evaluators (Eval, Eval4,
// ExprWidth) are reachable only from its own runs: a plan trace resolves
// every expression to the plan's closures, a reference trace carries the
// interpretive evaluator its run put on it, and internal/lint folds with
// compile.Fold; so production binaries link none of the interpreter.
// internal/compile alone decides what a design may hold: it
// rejects every construct the planner cannot lower (an assignment to a
// parameter, a part-select bound, replication count or $past depth that
// is not a constant it folds, and so on), and it folds every such constant
// with compile.Fold, the one constant folder, which the planner reads the
// constants back through. Every design that compiles therefore has a plan
// in both value domains; RunVecCtx fails on a design without one, which
// only an AST changed after elaboration can be, instead of running it on a
// second engine.
//
// Both value domains' lowerings run through one front end (lower.go). It
// walks the design's statements, assignment targets and expressions and
// hands the domain's emitter the lowered operands, the constant
// part-select bounds, replication counts and $past depths, which hold no x
// and so have one value in both domains, and the static widths masks
// depend on. A construct compile never lets through panics with its
// position, and the lowering recovers it into an error: PlanOf returns nil
// and a VecRunner's runs report it, so a gap between compile and the
// planner cannot crash a caller. The emitter sits behind a small
// build-time interface: given operands the front end has already lowered,
// it returns the closure the machine runs for a block, if, case,
// assignment, whole-signal store by write mode, bit, slice or concat
// store, or expression kernel. Static widths are memoised per lowering, so
// building a plan is linear in the expression size however deeply
// operators nest. The front end itself creates no closure a cycle runs, so
// the per-cycle code stays specialised to the machine's state layout and
// pays no dispatch.
//
// # Entry points and the run loop
//
// Three functions run a simulation, each in a value domain: RunVecCtx on
// the compiled plan, and RunReferenceCtx and RunReferenceBranches on the
// reference interpreter (the oracle of the differential tests,
// internal/fuzz and internal/lint's branch contract). They take one
// stimulus form, VecStimulus: a fixed input list and one dense row of
// values per cycle. Each checks the stimulus once, before the first cycle,
// in one order shared by plan and reference: every row holds one value per
// input, then every column names an input of the design, so a bad stimulus
// fails with the same error on either engine, even with no rows. Each
// cycle then drives Inputs[i] from Rows[c][i], masked to its width and
// fully known; an input the stimulus does not list is never driven. All of
// them reach one per-cycle loop (run.go): poll for cancellation, capture
// the domain clocks, apply the row's inputs, settle, sample the row and
// the fired mask, run the edge. Each engine — plan or reference
// interpreter, in either value domain — supplies only that step set, one
// call per step per cycle, so its settle and edge loops stay monomorphic.
// An error inside a cycle is reported as "cycle N: <cause>"; a cancelled
// run returns ctx.Err().
//
// # Reusable scalar run state
//
// A VecRunner is the scalar plan's run state for one design in one value
// domain: the machine, the step set and the trace — one contiguous row
// slab per value plane — are reset between runs instead of reallocated,
// so a loop over many stimuli allocates per design, not per stimulus.
// RunVecCtx is the one-shot use of that state, not a second code path.
// The trace a VecRunner returns is its own, and the next run overwrites
// it in place unless VecRunner.Detach hands it to the caller first.
// internal/sva builds its Checker on this: a passing outcome's Trace and
// Result are valid until the next check on the same checker, and a
// failing outcome's are detached and belong to the caller for good.
//
// # Clock domains
//
// Elaboration groups a design's sequential blocks by clock event into
// Design.Domains (at most 64), and both engines share one multi-clock
// seam (domains.go). Clocks are ordinary 1-bit input ports driven by the
// stimulus; there is no separate clock generator. A single-domain design
// never allocates any domain tracking and takes exactly the pre-existing
// code path: each stimulus row is one implicit tick of the one clock.
//
// For a multi-domain design, each cycle captures the committed clock
// values before the row's inputs are applied, applies the inputs, and
// derives a per-domain "fired" mask from each clock's transition — a
// posedge domain fires on 0->1, a negedge domain on 1->0 — and the edge
// runs only the sequential blocks whose domain fired. In four-state mode
// a transition involving an unknown sample on either side never fires, so
// an x-driven clock holds its registers rather than inventing an edge;
// the "previous" value at cycle 0 is the machine's initial state (0
// two-state, x four-state). Combinational settling, trace recording and
// the preponed SVA sampling point are unchanged: every row is still
// recorded, whether or not any domain ticked on it.
//
// The SVA checker samples each assertion only at its own clock domain's
// tick cycles (Trace.DomainCycles); rows where the domain did not tick
// are invisible to the property, exactly as in event-driven simulation.
//
// # Value domains
//
// Mode selects the semantics; TwoState is the zero value and the one the formal checker runs unless asked for four-state,
// so corpora, goldens and benchmark trajectories remain comparable across
// versions.
//
// TwoState is the historical documented substitution: x and z do not
// exist; x/z literal bits read as 0; registers initialise to zero unless a
// declaration initialiser or initial block says otherwise; division and
// modulus by zero yield 0.
//
// FourState (the mode argument of every entry point) models
// unknowns as a value plane plus an unknown-bit mask (V4); z folds into x
// — there is no drive-strength model, so a floating bit and an unknown bit
// are both just "unknown". Its rules, IEEE 1364-faithful on the supported
// subset:
//   - registers initialise to x until reset or first assignment;
//     declaration/initial-block initialisers apply, with x/z literal bits
//     staying unknown (an x inside a larger constant expression folds to
//     0, a documented simplification);
//   - bitwise operators propagate x per bit with absorption (0 & x = 0,
//     1 | x = 1); arithmetic and relational operators are all-x when any
//     input bit is unknown; division and modulus by zero are all-x;
//   - ===/!== compare both planes and are always known; ==/!= with any
//     unknown input are x; $isunknown reads the unknown plane and is
//     always known;
//   - an x if-condition takes the else branch (§9.4); an x-selected
//     ternary merges its arms bitwise (§5.1.13); case labels match by
//     case equality over both planes; a write through an unknown index
//     has no effect (§9.2.2), and a part-select bound is a constant with
//     no x, as compile requires;
//   - x/z digits in literals are positional over the bits each digit
//     spans; the IEEE left-extension of a leading x/z digit is not
//     applied (documented substitution);
//   - the SVA checker (internal/sva) treats an x antecedent term as
//     undetermined (no match, never a failure) and an x consequent term
//     as a failure flagged Unknown — the sampled expression is not true;
//     an x disable-iff does not disable.
//
// Semantics shared by both domains:
//   - arithmetic is performed in 64 bits and masked at assignment, which
//     matches Verilog's self-determined behaviour for the corpus subset.
//     Operators whose result width is self-determined mask eagerly: ~, -,
//     and >>> all operate in their operand's self-determined width, with
//     >>> sign-extending from that width's top bit (an unknown top bit
//     fills with x in the four-state domain);
//   - within a sequential block, reads see pre-edge values overlaid with
//     the block's own blocking assignments, and writes to the same signal
//     commit in program order at the edge: the last assignment wins whether
//     it was blocking or nonblocking. Nonblocking bit- and part-select
//     writes read-modify-write the latest pending post-edge value, so they
//     compose with earlier in-edge writes instead of resurrecting stale
//     pre-edge bits; blocking select writes, like blocking reads, see only
//     the blocking overlay (a pending nonblocking commit is invisible to
//     them, as in event-driven simulation);
//   - a bit-select write through an index >= 64, past the widest signal,
//     has no effect, as the matching read yields 0;
//   - $past depths must be constants in [1, 2^31-1]; other depths
//     (including negative values that wrapped around as uint64) are
//     compile errors, never undefined history accesses;
//   - asynchronous resets are sampled once per clock cycle: a sequential
//     block sensitive to "negedge rst_n" executes its reset branch on any
//     cycle in which rst_n is low at the clock edge.
package sim
