// Package borrowedbuf enforces the netio.Handler borrowed-payload
// contract: the []byte a handler receives aliases the substrate's receive
// buffer (udpnet's recvmmsg ring, a sender's marshal scratch) and is only
// valid for the duration of the call. A handler that retains the slice —
// stores it in a field or package variable, sends it on a channel,
// captures it in a spawned goroutine or timer callback, or appends the
// slice value itself into a longer-lived collection — is reading memory
// the ring will overwrite with the next datagram. This is the PR-8 alias
// bug class, previously only caught by corrupted payloads in soak runs.
// Retention is fine after an intervening copy: bytes.Clone/slices.Clone,
// append([]byte(nil), p...), string(p), or a copying constructor such as
// appia.FromWire (any plain call consuming the payload is assumed to
// parse or copy before returning, per the contract).
//
// The same contract holds one level up since the stack releases a cast's
// message where its life ends: the payload an OnMessage callback receives,
// and any slice obtained from (*appia.Message).Bytes or PopBytes — in a
// delivery callback or anywhere else — aliases a pooled buffer that goes to
// an unrelated message once the owner releases it. Those are checked for the
// same retention shapes; only returning a Bytes() slice from an ordinary
// function is left alone (accessors do that legitimately).
//
// Events are recycled the same way: the *group.CastEvent an OnCast or
// OnDeliver callback receives goes back to its kind's pool when the callback
// returns, so storing the event (or the message it carries) in a field,
// package variable or captured slice, sending it on a channel, or capturing it
// in a goroutine or timer hands a later cast's fields to whoever reads it.
// Copying the fields needed (ev.Origin, string(ev.Msg.Bytes())) is clean.
package borrowedbuf

import (
	"go/ast"
	"go/types"

	"morpheus/tools/morpheuslint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:  "borrowedbuf",
	Doc:   "flags netio handler payloads, OnMessage payloads, appia.Message byte slices and delivered cast events retained past the call that lent them",
	Scope: func(string) bool { return true },
	Run:   run,
}

func run(pass *analysis.Pass) error {
	decls := analysis.EnclosingFuncs(pass)
	seen := map[*ast.BlockStmt]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.KeyValueExpr:
				// Config{OnMessage: fn}: a delivery callback.
				if id, ok := e.Key.(*ast.Ident); ok && deliveryCallbacks[id.Name] {
					checkExpr(pass, decls, seen, e.Value)
				}
			case *ast.CallExpr:
				// Handlers passed as arguments: ep.Handle(port, h) and
				// explicit netio.Handler(f) conversions.
				if target, ok := analysis.IsConversion(pass.Info, e); ok {
					if isHandlerType(target) && len(e.Args) == 1 {
						checkExpr(pass, decls, seen, e.Args[0])
					}
					return true
				}
				fn := analysis.Callee(pass.Info, e)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				for i, arg := range e.Args {
					if i >= sig.Params().Len() {
						break
					}
					if isHandlerType(sig.Params().At(i).Type()) {
						checkExpr(pass, decls, seen, arg)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range e.Rhs {
					if i < len(e.Lhs) && (isHandlerExpr(pass, e.Lhs[i]) || isCallbackField(e.Lhs[i])) {
						checkExpr(pass, decls, seen, rhs)
					}
				}
			case *ast.ValueSpec:
				for i, v := range e.Values {
					if i < len(e.Names) && isHandlerExpr(pass, e.Names[i]) {
						checkExpr(pass, decls, seen, v)
					}
				}
			}
			return true
		})
	}
	// Message byte slices are borrowed wherever they are obtained: walk every
	// function not already checked as a callback, with nothing tainted yet.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && !seen[fd.Body] {
				w := &walker{pass: pass, body: fd.Body, tainted: map[types.Object]bool{}, checked: seen}
				w.walk(fd.Body)
			}
		}
	}
	return nil
}

// deliveryCallbacks are the delivery-callback fields (morpheus.Config and
// GroupConfig, stack.ManagerConfig, and the fixture's stand-in): an
// OnMessage []byte parameter is borrowed exactly as a netio.Handler's is, an
// OnCast/OnDeliver *group.CastEvent until the callback returns.
var deliveryCallbacks = map[string]bool{"OnMessage": true, "OnCast": true, "OnDeliver": true}

func isCallbackField(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && deliveryCallbacks[sel.Sel.Name]
}

// isCastEvent reports whether t is *group.CastEvent (morpheus.CastEvent is
// an alias of it).
func isCastEvent(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && analysis.NamedFrom(p.Elem(), "group", "CastEvent")
}

// borrowed names what a retained value holds, for the report: a delivered
// event or its message (or a collection or channel of events), or borrowed
// bytes.
func borrowed(pass *analysis.Pass, e ast.Expr) (what, remedy string) {
	if tv, ok := pass.Info.Types[e]; ok && holdsEvent(tv.Type) {
		return "delivered event", "copy the fields it needs (Origin, string(Msg.Bytes()), ...) instead"
	}
	return "borrowed bytes", "Clone/copy the bytes first"
}

func holdsEvent(t types.Type) bool {
	for {
		if isCastEvent(t) || analysis.NamedFrom(t, "appia", "Message") {
			return true
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		default:
			return false
		}
	}
}

// isMessageBytes reports whether call is (*appia.Message).Bytes or PopBytes:
// the two accessors that hand out a slice of the message's pooled buffer.
func isMessageBytes(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.Info, call)
	if fn == nil || (fn.Name() != "Bytes" && fn.Name() != "PopBytes") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.NamedFrom(sig.Recv().Type(), "appia", "Message")
}

// isHandlerType reports whether t is the named type Handler from a
// package called netio (matching the fixture's local netio too).
func isHandlerType(t types.Type) bool {
	return analysis.NamedFrom(t, "netio", "Handler")
}

func isHandlerExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if ok {
		return isHandlerType(tv.Type)
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pass.Info.ObjectOf(id); obj != nil {
			return isHandlerType(obj.Type())
		}
	}
	return false
}

// checkExpr resolves a handler-valued expression to a checkable function
// body: a literal, or a same-package function/method by name.
func checkExpr(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, seen map[*ast.BlockStmt]bool, e ast.Expr) {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		checkBody(pass, seen, v.Type, v.Body)
	case *ast.Ident, *ast.SelectorExpr:
		var id *ast.Ident
		if sel, ok := v.(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else {
			id = v.(*ast.Ident)
		}
		if fn, ok := pass.Info.Uses[id].(*types.Func); ok {
			if fd := decls[fn]; fd != nil {
				checkBody(pass, seen, fd.Type, fd.Body)
			}
		}
	}
}

// checkBody taints the []byte and *CastEvent parameters and walks the body for
// retention. The walk is in source order with a light flow model: a clone
// untaints, an alias (q := p, q := p[i:]) taints the new name.
func checkBody(pass *analysis.Pass, seen map[*ast.BlockStmt]bool, ft *ast.FuncType, body *ast.BlockStmt) {
	if body == nil || seen[body] {
		return
	}
	tainted := map[types.Object]bool{}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if isByteSlice(obj.Type()) || isCastEvent(obj.Type()) {
				tainted[obj] = true
			}
		}
	}
	if len(tainted) == 0 {
		return // not a payload callback after all: the general walk covers it
	}
	seen[body] = true
	w := &walker{pass: pass, body: body, tainted: tainted, callback: true}
	w.walk(body)
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// walker checks one function body for retention of borrowed bytes.
type walker struct {
	pass *analysis.Pass
	// body is the function checked: assignment to anything declared outside
	// it (fields, package vars, captured vars) is retention.
	body    *ast.BlockStmt
	tainted map[types.Object]bool
	// callback marks a handler or delivery callback, whose borrowed bytes
	// came in as a parameter: returning them escapes too.
	callback bool
	// checked lists callback bodies already walked; the general walk steps
	// over the literals among them.
	checked map[*ast.BlockStmt]bool
}

// walk reports retention of tainted values within n.
func (w *walker) walk(n ast.Node) {
	pass, tainted := w.pass, w.tainted
	ast.Inspect(n, func(m ast.Node) bool {
		switch e := m.(type) {
		case *ast.FuncLit:
			return !w.checked[e.Body]
		case *ast.AssignStmt:
			w.handleAssign(e)
			return false // children handled
		case *ast.SendStmt:
			if aliases(pass, e.Value, tainted) {
				what, remedy := borrowed(pass, e.Value)
				pass.Reportf(e.Pos(),
					"%s sent on a channel outlive the call that lent them; the receive ring or the pools will reuse them — %s", what, remedy)
			}
			return true
		case *ast.GoStmt:
			if id := capturesTainted(pass, e.Call, tainted); id != nil {
				what, remedy := borrowed(pass, id)
				pass.Reportf(e.Pos(),
					"%s captured by a spawned goroutine outlive the call that lent them; %s", what, remedy)
			}
			return true
		case *ast.CallExpr:
			// Deferred-execution callbacks: clk.Go / clk.AfterFunc /
			// scheduler posts that capture the payload escape too.
			if fn := analysis.Callee(pass.Info, e); fn != nil {
				switch fn.Name() {
				case "Go", "AfterFunc":
					if id := capturesTainted(pass, e, tainted); id != nil {
						what, remedy := borrowed(pass, id)
						pass.Reportf(e.Pos(),
							"%s captured by a %s callback outlive the call that lent them; %s", what, fn.Name(), remedy)
					}
				}
			}
			return true
		case *ast.ReturnStmt:
			for _, r := range e.Results {
				if w.callback && aliases(pass, r, tainted) {
					pass.Reportf(e.Pos(),
						"borrowed payload returned to the caller escapes the callback's lifetime; return a copy")
				}
			}
			return true
		}
		return true
	})
}

// handleAssign processes one assignment: records retention, propagates
// and clears taint.
func (w *walker) handleAssign(as *ast.AssignStmt) {
	pass, handlerBody, tainted := w.pass, w.body, w.tainted
	for i, rhs := range as.Rhs {
		// Nested closures etc. still need scanning.
		w.walk(rhs)
		if i >= len(as.Lhs) {
			continue
		}
		lhs := ast.Unparen(as.Lhs[i])
		rhsAliases := aliases(pass, rhs, tainted)
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := pass.Info.ObjectOf(l)
			if obj == nil {
				break
			}
			local := obj.Pos() >= handlerBody.Pos() && obj.Pos() <= handlerBody.End()
			if rhsAliases {
				if !local {
					what, remedy := borrowed(pass, rhs)
					pass.Reportf(as.Pos(),
						"%s stored in %q, which outlives the call that lent them; %s", what, l.Name, remedy)
				} else {
					tainted[obj] = true
				}
			} else if tainted[obj] {
				delete(tainted, obj) // reassigned to a clean value (e.g. a clone)
			}
		case *ast.SelectorExpr:
			if rhsAliases {
				what, remedy := borrowed(pass, rhs)
				pass.Reportf(as.Pos(),
					"%s stored in field %q outlive the call that lent them; %s", what, l.Sel.Name, remedy)
			}
		case *ast.IndexExpr:
			if rhsAliases {
				what, remedy := borrowed(pass, rhs)
				pass.Reportf(as.Pos(),
					"%s stored into a map/slice element outlive the call that lent them; %s", what, remedy)
			}
		}
	}
}

// aliases reports whether e evaluates to memory aliasing a tainted slice:
// the ident itself, a slice/paren of it, a slice-typed conversion of it,
// an append that incorporates the slice *value* (non-spread), a composite
// literal / address-of carrying an aliasing expression, or a fresh borrow
// from an appia.Message, or a pointer reached through a tainted event (its
// Msg). Other plain calls (parsers, copying constructors), spread appends and
// value fields of an event yield clean values.
func aliases(pass *analysis.Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Info.ObjectOf(v)
		return obj != nil && tainted[obj]
	case *ast.SelectorExpr:
		tv, ok := pass.Info.Types[v]
		if _, ptr := tv.Type.(*types.Pointer); ok && ptr {
			return aliases(pass, v.X, tainted)
		}
		return false
	case *ast.SliceExpr:
		return aliases(pass, v.X, tainted)
	case *ast.UnaryExpr:
		return aliases(pass, v.X, tainted)
	case *ast.StarExpr:
		return aliases(pass, v.X, tainted)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if aliases(pass, el, tainted) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if analysis.IsBuiltin(pass.Info, v, "append") {
			// append(x, p) retains p's backing array when p is appended
			// as a value (slice-of-slices); append(x, p...) copies bytes.
			if v.Ellipsis.IsValid() {
				return false
			}
			for _, arg := range v.Args[1:] {
				if aliases(pass, arg, tainted) {
					return true
				}
			}
			// Growing a tainted slice still aliases it (pre-growth).
			return aliases(pass, v.Args[0], tainted)
		}
		if target, ok := analysis.IsConversion(pass.Info, v); ok && len(v.Args) == 1 {
			// A conversion to another slice type keeps the aliasing;
			// string(p) copies.
			if isByteSlice(target) {
				return aliases(pass, v.Args[0], tainted)
			}
			return false
		}
		// m.Bytes() and m.PopBytes() hand out the message's pooled buffer;
		// any other call is assumed to parse/copy (e.g. FromWire, bytes.Clone).
		return isMessageBytes(pass, v)
	default:
		return false
	}
}

// capturesTainted returns the first reference to a tainted object in a call's
// function-literal argument (or the spawned call's args), or nil.
func capturesTainted(pass *analysis.Pass, call *ast.CallExpr, tainted map[types.Object]bool) *ast.Ident {
	var found *ast.Ident
	check := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil && tainted[obj] {
					found = id
				}
			}
			return found == nil
		})
	}
	for _, arg := range call.Args {
		check(arg)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		check(lit.Body)
	}
	return found
}
