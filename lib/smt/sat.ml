(* CDCL SAT solver, closely following the MiniSat architecture. *)

type result = Sat | Unsat | Unknown

type t = {
  mutable n_vars : int;
  mutable clauses : int array array;
  mutable n_clauses : int;
  mutable watches : int list array;  (* literal -> watching clause indices *)
  mutable assign : int array;        (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array;        (* var -> clause index or -1 *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable n_lim : int;
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable phase : bool array;
  (* binary max-heap on activity *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;      (* var -> heap index or -1 *)
  mutable ok : bool;
  mutable model : int array;         (* copy of assign at last Sat *)
  mutable model_valid : bool;
  mutable decisions : int;
  mutable conflicts : int;
  mutable propagations : int;
}

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1

let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0 (* true if positive *)

let create () =
  { n_vars = 0;
    clauses = Array.make 64 [||];
    n_clauses = 0;
    watches = Array.make 16 [];
    assign = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    n_lim = 0;
    qhead = 0;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    phase = Array.make 8 false;
    heap = Array.make 8 0;
    heap_size = 0;
    heap_pos = Array.make 8 (-1);
    ok = true;
    model = [||];
    model_valid = false;
    decisions = 0;
    conflicts = 0;
    propagations = 0 }

(* --- growable arrays --- *)

let grow_int a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow_float a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow_bool a n fill =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let grow_lists a n =
  if Array.length a >= n then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) [] in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* --- heap on activity --- *)

let heap_less s v u = s.activity.(v) > s.activity.(u)

let heap_swap s i j =
  let vi = s.heap.(i) and vj = s.heap.(j) in
  s.heap.(i) <- vj;
  s.heap.(j) <- vi;
  s.heap_pos.(vj) <- i;
  s.heap_pos.(vi) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) = -1 then begin
    s.heap <- grow_int s.heap (s.heap_size + 1) 0;
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let heap_bump s v =
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* --- variables --- *)

let new_var s =
  let v = s.n_vars in
  s.n_vars <- v + 1;
  s.assign <- grow_int s.assign (v + 1) (-1);
  s.level <- grow_int s.level (v + 1) 0;
  s.reason <- grow_int s.reason (v + 1) (-1);
  s.activity <- grow_float s.activity (v + 1) 0.0;
  s.phase <- grow_bool s.phase (v + 1) false;
  s.heap_pos <- grow_int s.heap_pos (v + 1) (-1);
  s.watches <- grow_lists s.watches (2 * (v + 1));
  s.trail <- grow_int s.trail (v + 1) 0;
  s.assign.(v) <- -1;
  s.heap_pos.(v) <- -1;
  heap_insert s v;
  v

let lit_value s l =
  let a = s.assign.(lit_var l) in
  if a = -1 then -1 else if lit_sign l then a else 1 - a

let current_level s = s.n_lim

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for u = 0 to s.n_vars - 1 do
      s.activity.(u) <- s.activity.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_bump s v

let decay s = s.var_inc <- s.var_inc /. 0.95

(* --- trail --- *)

let enqueue s l reason =
  (* precondition: l unassigned *)
  let v = lit_var l in
  s.assign.(v) <- (if lit_sign l then 1 else 0);
  s.level.(v) <- current_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let cancel_until s lvl =
  if current_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = lit_var s.trail.(i) in
      s.phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.n_lim <- lvl
  end

(* --- clauses --- *)

(* watches.(l) holds the clauses watching literal l; they are visited
   when l becomes false *)
let attach s ci =
  let c = s.clauses.(ci) in
  s.watches.(c.(0)) <- ci :: s.watches.(c.(0));
  s.watches.(c.(1)) <- ci :: s.watches.(c.(1))

let add_clause_internal s lits =
  let ci = s.n_clauses in
  if ci >= Array.length s.clauses then begin
    let a = Array.make (2 * Array.length s.clauses) [||] in
    Array.blit s.clauses 0 a 0 s.n_clauses;
    s.clauses <- a
  end;
  s.clauses.(ci) <- lits;
  s.n_clauses <- ci + 1;
  attach s ci;
  ci

let add_clause s lits =
  if s.ok then begin
    s.model_valid <- false;
    (* simplify: dedupe, drop false-at-level-0, detect tautology *)
    let lits = List.sort_uniq compare lits in
    let taut =
      List.exists (fun l -> List.mem (negate l) lits) lits
      || List.exists (fun l -> lit_value s l = 1 && s.level.(lit_var l) = 0) lits
    in
    if not taut then begin
      let lits =
        List.filter
          (fun l -> not (lit_value s l = 0 && s.level.(lit_var l) = 0))
          lits
      in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
          if lit_value s l = 0 then s.ok <- false
          else if lit_value s l = -1 then enqueue s l (-1)
      | _ -> ignore (add_clause_internal s (Array.of_list lits))
    end
  end

(* --- propagation --- *)

let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = negate l in
    let ws = s.watches.(false_lit) in
    s.watches.(false_lit) <- [];
    let rec go = function
      | [] -> ()
      | ci :: rest ->
          let c = s.clauses.(ci) in
          (* ensure the false literal is at position 1 *)
          if c.(0) = false_lit then begin
            c.(0) <- c.(1);
            c.(1) <- false_lit
          end;
          if lit_value s c.(0) = 1 then begin
            (* clause satisfied: keep watching *)
            s.watches.(false_lit) <- ci :: s.watches.(false_lit);
            go rest
          end
          else begin
            (* look for a new watch *)
            let n = Array.length c in
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < n do
              if lit_value s c.(!k) <> 0 then begin
                c.(1) <- c.(!k);
                c.(!k) <- false_lit;
                s.watches.(c.(1)) <- ci :: s.watches.(c.(1));
                found := true
              end;
              incr k
            done;
            if !found then go rest
            else begin
              (* unit or conflict *)
              s.watches.(false_lit) <- ci :: s.watches.(false_lit);
              if lit_value s c.(0) = 0 then begin
                conflict := ci;
                (* keep remaining watches *)
                List.iter
                  (fun cj -> s.watches.(false_lit) <- cj :: s.watches.(false_lit))
                  rest
              end
              else begin
                enqueue s c.(0) ci;
                go rest
              end
            end
          end
    in
    go ws
  done;
  !conflict

(* --- conflict analysis (first UIP) --- *)

let analyze s confl =
  let seen = Array.make s.n_vars false in
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (s.trail_size - 1) in
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!confl) in
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = lit_var q in
          if (not seen.(v)) && s.level.(v) > 0 then begin
            seen.(v) <- true;
            bump s v;
            if s.level.(v) = current_level s then incr counter
            else learnt := q :: !learnt
          end
        end)
      c;
    (* next literal to expand *)
    while not seen.(lit_var s.trail.(!index)) do
      decr index
    done;
    let pl = s.trail.(!index) in
    decr index;
    seen.(lit_var pl) <- false;
    decr counter;
    if !counter = 0 then begin
      p := pl;
      continue := false
    end
    else begin
      p := pl;
      confl := s.reason.(lit_var pl)
    end
  done;
  (* local learned-clause minimization: a literal is redundant when its
     reason clause is entirely covered by other marked literals (or
     level-0 facts), so resolving it away cannot add anything *)
  let redundant q =
    let v = lit_var q in
    s.reason.(v) >= 0
    && Array.for_all
         (fun l ->
           lit_var l = v || seen.(lit_var l) || s.level.(lit_var l) = 0)
         s.clauses.(s.reason.(v))
  in
  let learnt = List.filter (fun q -> not (redundant q)) !learnt in
  let learnt = negate !p :: learnt in
  let back_level =
    List.fold_left
      (fun acc q -> if q = negate !p then acc else max acc s.level.(lit_var q))
      0 learnt
  in
  (Array.of_list learnt, back_level)

(* --- search --- *)

(* 1-based Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let pick_branch_var s =
  let v = ref (-1) in
  while !v = -1 && s.heap_size > 0 do
    let u = heap_pop s in
    if s.assign.(u) = -1 then v := u
  done;
  !v

let solve ?(conflict_budget = max_int) s =
  Apex_telemetry.Counter.incr "smt.solver_calls";
  if Apex_guard.Fault.fire "smt-exhaust" then begin
    (* injected budget exhaustion: exactly the Unknown a conflict-budget
       trip produces, so the caller's proved-to-tested ladder runs *)
    Apex_guard.Outcome.record ~phase:"smt"
      (Apex_guard.Outcome.Degraded (Apex_guard.Outcome.Fault "smt-exhaust"));
    Unknown
  end
  else
    (* every query gets a latency sample, including the many that the
       encoder already refuted at clause-add time (instant Unsat): the
       p50/p95 of smt.query_ms describe what a query *costs*, and most
       cost nothing *)
    Apex_telemetry.Counter.time "smt.query_ms" @@ fun () ->
    if not s.ok then Unsat
    else begin
    cancel_until s 0;
    s.model_valid <- false;
    let result = ref None in
    let total_conflicts = ref 0 in
    let conflicts_this = ref 0 in
    let restart = ref 1 in
    let restart_limit = ref (100 * luby 1) in
    while !result = None do
      let confl = propagate s in
      if confl >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        incr total_conflicts;
        incr conflicts_this;
        if current_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else if !total_conflicts > conflict_budget then result := Some Unknown
        else if Apex_guard.expired () then begin
          (* ambient deadline mid-search: report Unknown rather than
             unwinding the trail through an exception — callers treat
             it exactly like a conflict-budget exhaustion *)
          Apex_guard.Outcome.record ~phase:"smt"
            (Apex_guard.Outcome.Degraded Apex_guard.Outcome.Deadline);
          result := Some Unknown
        end
        else begin
          let learnt, back_level = analyze s confl in
          cancel_until s back_level;
          (match Array.length learnt with
          | 1 -> enqueue s learnt.(0) (-1)
          | _ ->
              let ci = add_clause_internal s learnt in
              enqueue s learnt.(0) ci);
          decay s;
          if !conflicts_this >= !restart_limit then begin
            conflicts_this := 0;
            incr restart;
            restart_limit := 100 * luby !restart;
            cancel_until s 0
          end
        end
      end
      else begin
        let v = pick_branch_var s in
        if v = -1 then begin
          (* complete assignment *)
          s.model <- Array.sub s.assign 0 s.n_vars;
          s.model_valid <- true;
          result := Some Sat
        end
        else begin
          s.decisions <- s.decisions + 1;
          s.trail_lim <- grow_int s.trail_lim (s.n_lim + 1) 0;
          s.trail_lim.(s.n_lim) <- s.trail_size;
          s.n_lim <- s.n_lim + 1;
          enqueue s (if s.phase.(v) then pos v else neg v) (-1)
        end
      end
    done;
    cancel_until s 0;
    (match !result with
    | Some Sat ->
        (* re-insert all vars so later solves start fresh *)
        for v = 0 to s.n_vars - 1 do
          if s.assign.(v) = -1 then heap_insert s v
        done
    | _ -> ());
    Option.get !result
  end

let model_value s v =
  if not s.model_valid then invalid_arg "Sat.model_value: no model";
  if v < 0 || v >= Array.length s.model then
    invalid_arg "Sat.model_value: variable out of range";
  s.model.(v) = 1

let stats s = (s.decisions, s.conflicts, s.propagations)
