// Command vet-ignored flags discarded error returns from the simulation
// engine's interruptible blocking calls, and other results whose loss no
// compiler notices: fault-injector draws, Validate verdicts, step-engine
// driver signals, episode lifecycle transitions, and the failed-run
// ledger of sweep.Run. `go vet` does not check unused
// call results, and a bare statement like
//
//	p.Wait(cmd.dur)
//
// silently conflates "the wait expired" with "the phase was aborted by an
// interrupt" — exactly the nodesim.nodeLoop bug this repository shipped.
// Explicitly discarding with `_ = p.Wait(d)` is accepted: it states the
// caller considered the abort path and chose to ignore it.
//
// The checker is deliberately type-free (pure AST): it looks for
// expression-statement calls to the engine's error-returning method set.
// That catches every call through the sim API without needing a full type
// check, and a method of another type that happens to share a name is
// still worth an explicit discard at these call sites.
//
// Usage: vet-ignored <dir>...  (walks each tree, skipping _test.go files)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// interruptible is the sim API surface returning an error that encodes an
// interrupt delivery. Dropping one of these on the floor loses an abort.
var interruptible = map[string]bool{
	"Wait":      true, // Proc.Wait
	"WaitEvent": true, // Proc.WaitEvent
	"Join":      true, // Proc.Join
	"Acquire":   true, // Resource.Acquire
}

// injectorHooks is the faultinject draw surface. Unlike the interruptible
// set these are zero-argument (or attempt-indexed) draws whose boolean
// result IS the injected fault: a bare statement both discards the fault
// — silently un-degrading the platform — and still consumes the rng draw,
// desynchronising the plan. There is no legitimate discard, so `_ =` is
// not suggested.
var injectorHooks = map[string]bool{
	"BBWriteFails":        true, // Injector.BBWriteFails
	"PFSWriteFails":       true, // Injector.PFSWriteFails
	"CorruptCommit":       true, // Injector.CorruptCommit
	"RestartAttemptFails": true, // Injector.RestartAttemptFails
	"CascadeRecovery":     true, // Injector.CascadeRecovery

	// Machine-scope injector draws: a dropped gap or window both loses
	// the fault event and shifts every later draw on that substream.
	"NextBrownoutGap":     true, // MachineInjector.NextBrownoutGap
	"BrownoutWindow":      true, // MachineInjector.BrownoutWindow
	"NextDrainOutageGap":  true, // MachineInjector.NextDrainOutageGap
	"DrainOutageWindow":   true, // MachineInjector.DrainOutageWindow
	"NextCrashGap":        true, // MachineInjector.NextCrashGap
	"CrashRack":           true, // MachineInjector.CrashRack
	"CrashBackoffSeconds": true, // MachineInjector.CrashBackoffSeconds
}

// validators are zero-argument error-returning checks whose entire point
// is the returned error: platform.Config.Validate, scenario.Spec.Validate,
// scenario.Trace.Validate, failure.Replay.Validate. A bare `x.Validate()`
// statement runs the check and throws the verdict away — an invalid spec
// sails straight into the simulator.
var validators = map[string]bool{
	"Validate": true,
}

// stepDrivers are the engine's zero-argument step primitives whose
// boolean result reports whether an event was actually processed. A bare
// `e.ProcessNextEvent()` in a driver loop discards the "engine drained"
// signal — the loop spins forever on an empty heap.
var stepDrivers = map[string]bool{
	"ProcessNextEvent": true, // sim.Engine.ProcessNextEvent
}

// lifecycleHooks is the policy.State episode surface whose results carry
// protocol state transitions, not status codes. The step-tier episode
// continuations call these between engine callbacks, where no compiler
// or runtime signal marks a dropped result: a bare FinishMigration
// discards "this migration was already aborted" and double-counts the
// node; a bare ConsumeAvoided/TakeRescheduled both loses the verdict
// and still clears the flag, desynchronising the continuation from the
// state machine. An explicit `_ =` is accepted for the tiers that
// genuinely don't branch (the statistical tier commits unconditionally).
var lifecycleHooks = map[string]bool{
	"FinishMigration": true, // policy.State.FinishMigration
	"ConsumeAvoided":  true, // policy.State.ConsumeAvoided
	"TakeRescheduled": true, // policy.State.TakeRescheduled
	"CommitPFS":       true, // policy.State.CommitPFS
	"FinishDrain":     true, // policy.State.FinishDrain
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: vet-ignored <dir>...")
		os.Exit(2)
	}
	bad := 0
	for _, root := range os.Args[1:] {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := checkFile(path)
			bad += n
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vet-ignored: %v\n", err)
			os.Exit(2)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "vet-ignored: %d ignored result(s)\n", bad)
		os.Exit(1)
	}
}

// checkFile reports every offending statement in one file.
func checkFile(path string) (int, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	bad := 0
	ast.Inspect(file, func(n ast.Node) bool {
		// out, _ := sweep.Run(...) blank-discards the failed-run ledger: the
		// sweep then reports means over the completed runs as if every run
		// had completed.
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 2 && types.ExprString(as.Lhs[1]) == "_" &&
			strings.HasPrefix(types.ExprString(as.Rhs[0]), "sweep.Run(") {
			fmt.Printf("%s: failed-run ledger of sweep.Run(...) discarded\n", fset.Position(as.Pos()))
			bad++
			return true
		}
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if injectorHooks[name] {
			// Injector draws are flagged regardless of arity: dropping one
			// un-degrades the platform while still consuming the draw.
			pos := fset.Position(call.Pos())
			fmt.Printf("%s: result of .%s(...) ignored (an injected fault must be handled, not dropped)\n",
				pos, name)
			bad++
			return true
		}
		if validators[name] && len(call.Args) == 0 {
			// Zero-arg Validate() calls exist only for their error result.
			pos := fset.Position(call.Pos())
			fmt.Printf("%s: result of .%s() ignored (the validation verdict is the call's only output)\n",
				pos, name)
			bad++
			return true
		}
		if stepDrivers[name] && len(call.Args) == 0 {
			pos := fset.Position(call.Pos())
			fmt.Printf("%s: result of .%s() ignored (a discarded false spins a driver loop on a drained engine)\n",
				pos, name)
			bad++
			return true
		}
		if lifecycleHooks[name] {
			// Episode lifecycle hooks are flagged regardless of arity: the
			// result is a state transition the continuation must act on.
			pos := fset.Position(call.Pos())
			fmt.Printf("%s: result of .%s(...) ignored (an episode state transition drives the continuation; use `_ =` only where the tier genuinely doesn't branch)\n",
				pos, name)
			bad++
			return true
		}
		if !interruptible[name] {
			return true
		}
		// Every interruptible sim method takes at least one argument;
		// zero-arg calls are other APIs (sync.WaitGroup.Wait and kin).
		if len(call.Args) == 0 {
			return true
		}
		pos := fset.Position(call.Pos())
		fmt.Printf("%s: result of .%s(...) ignored (use `_ =` if the interrupt is deliberately dropped)\n",
			pos, name)
		bad++
		return true
	})
	return bad, nil
}
