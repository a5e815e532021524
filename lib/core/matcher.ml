exception Ept_too_large of int

(* EPT nodes are immutable once materialized: the per-estimate accumulators
   live in a caller-owned {!scratch}, not on the nodes, so one EPT can serve
   concurrent estimates from several domains (the serving pool shares a
   single EPT across workers with no locks). *)
type node = {
  mutable id : int;  (* preorder index, assigned once at materialization *)
  label : Xml.Label.t;
  card : float;
  bsel : float;
  children : node array;
}

(* [depth] is the number of levels (a lone root has depth 1); it sizes the
   scratch rows that only the live root-to-leaf path needs. [finite] says
   every card is finite, so a subtree with no valid image adds exactly 0. *)
type ept = { root : node; nodes : int; depth : int; finite : bool }

let materialize ?(max_nodes = 2_000_000) ?obs traveler =
  let count = ref 0 in
  (* Stack of (open_info, preorder id, reversed children). *)
  let stack = ref [] in
  let open_levels = ref 0 and depth = ref 0 and finite = ref true in
  let finished = ref None in
  let rec drain () =
    match Traveler.next traveler with
    | Traveler.Eos -> ()
    | Traveler.Open info ->
      incr count;
      if !count > max_nodes then raise (Ept_too_large !count);
      stack := (info, !count - 1, ref []) :: !stack;
      if not (Float.is_finite info.card) then finite := false;
      incr open_levels;
      if !open_levels > !depth then depth := !open_levels;
      drain ()
    | Traveler.Close _ ->
      (match !stack with
       | [] -> invalid_arg "Matcher.materialize: unbalanced traveler events"
       | (info, id, kids) :: rest ->
         let node =
           { id; label = info.label; card = info.card; bsel = info.bsel;
             children = Array.of_list (List.rev !kids) }
         in
         (match rest with
          | [] -> finished := Some node
          | (_, _, parent_kids) :: _ -> parent_kids := node :: !parent_kids);
         stack := rest;
         decr open_levels;
         drain ())
  in
  drain ();
  match !finished with
  | Some root ->
    Obs.add_to ?obs "matcher.ept_nodes" !count;
    { root; nodes = !count; depth = !depth; finite = !finite }
  | None -> invalid_arg "Matcher.materialize: traveler produced no events"

let node_count ept = ept.nodes

type synthetic = node

let synthetic_node ~label ~card ~bsel ~children =
  { id = 0; label; card; bsel; children = Array.of_list children }

(* Synthetic trees are built without ids; renumber in preorder so the
   estimate scratch indexes them like a materialized EPT. *)
let of_synthetic root =
  let next = ref 0 and depth = ref 0 and finite = ref true in
  let rec go d n =
    n.id <- !next;
    incr next;
    if d > !depth then depth := d;
    if not (Float.is_finite n.card) then finite := false;
    Array.iter (go (d + 1)) n.children
  in
  go 1 root;
  { root; nodes = !next; depth = !depth; finite = !finite }

(* Compiled query mirror (same shape as Nok.Eval's), plus the per-query
   predicate plan the HET overrides need, computed once here instead of at
   every spine node. *)
type compiled = {
  size : int;
  test : int array;  (* label id, -1 wildcard, -2 unknown name *)
  is_descendant : bool array;
  parent : int array;
  preds : int array array;  (* predicate children *)
  kids : int array array;  (* preds @ spine *)
  vpreds : Xpath.Ast.value_predicate list array;
  on_result_path : bool array;
  result_id : int;
  next : int array;  (* the spine child's test, -1 without a spine child *)
  eligible : int array array;
      (* predicates a HET branching pattern can answer: child axis, name
         test, no nested steps; in query order *)
  rest : int array array;  (* the other predicates, in query order *)
  joint_labels : int list array;  (* sorted labels of [eligible] *)
  single_labels : int list array array;  (* [[label]] per eligible pred *)
  (* The columns each pass needs: a non-root QTN's subtree is only ever
     read back through its own axis, and the top-down pass only reads
     result-path QTNs; the other columns are never computed. *)
  child_cols : int array;
  desc_cols : int array;
  result_cols : int array;
  anc_cols : int array;  (* result-path parents of a [//] result step *)
  anchored : bool;
      (* the first step has the child axis, so only the EPT root can start
         a match *)
}

let compile table (qt : Xpath.Query_tree.t) =
  let test = Array.make qt.size (-2) in
  let is_descendant = Array.make qt.size false in
  let parent = Array.make qt.size (-1) in
  let preds = Array.make qt.size [||] in
  let spine = Array.make qt.size (-1) in
  let kids = Array.make qt.size [||] in
  let vpreds = Array.make qt.size [] in
  let on_result_path = Array.make qt.size false in
  let ids l = Array.of_list (List.map (fun c -> c.Xpath.Query_tree.id) l) in
  Xpath.Query_tree.iter qt ~f:(fun n ->
      test.(n.id) <-
        (match n.test with
         | Xpath.Ast.Wildcard -> -1
         | Xpath.Ast.Name name ->
           (match Xml.Label.find_opt table name with Some l -> l | None -> -2));
      is_descendant.(n.id) <- n.axis = Xpath.Ast.Descendant;
      on_result_path.(n.id) <- n.on_result_path;
      vpreds.(n.id) <- n.value_predicates;
      preds.(n.id) <- ids n.predicates;
      (match n.spine with Some s -> spine.(n.id) <- s.id | None -> ());
      let children = Xpath.Query_tree.children n in
      kids.(n.id) <- ids children;
      List.iter (fun c -> parent.(c.Xpath.Query_tree.id) <- n.id) children);
  let simple_pred k =
    (not is_descendant.(k)) && test.(k) >= 0 && kids.(k) = [||]
  in
  let eligible, rest =
    Array.split
      (Array.map
         (fun ps ->
           let e, r = List.partition simple_pred (Array.to_list ps) in
           (Array.of_list e, Array.of_list r))
         preds)
  in
  let labels ks = Array.to_list (Array.map (fun k -> test.(k)) ks) in
  let cols p = Array.of_list (List.filter p (List.init qt.size Fun.id)) in
  { size = qt.size; test; is_descendant; parent; preds; kids; vpreds;
    on_result_path; result_id = qt.result.id;
    next = Array.map (fun s -> if s >= 0 then test.(s) else -1) spine;
    eligible;
    rest;
    joint_labels = Array.map (fun ks -> List.sort Int.compare (labels ks)) eligible;
    single_labels = Array.map (Array.map (fun k -> [ test.(k) ])) eligible;
    child_cols = cols (fun q -> parent.(q) >= 0 && not is_descendant.(q));
    desc_cols = cols (fun q -> parent.(q) >= 0 && is_descendant.(q));
    result_cols = cols (fun q -> on_result_path.(q));
    anc_cols =
      cols (fun p ->
          on_result_path.(p)
          && Array.exists
               (fun q -> on_result_path.(q) && is_descendant.(q))
               kids.(p));
    anchored = not is_descendant.(qt.root.id) }

let[@inline] test_matches c q label = c.test.(q) = -1 || c.test.(q) = label

let[@inline] noisy_or a b = 1.0 -. ((1.0 -. a) *. (1.0 -. b))

(* Per-estimate instrumentation, threaded through both passes. The frontier
   is the number of candidate match vectors (per-child m rows) live at
   once — the analogue of Algorithm 3's buffered candidate-event sets; a
   match step is one (EPT node, query-tree node) combination a pass covers,
   including those it skips as provably zero. *)
type match_stats = {
  mutable ept_nodes : int;
  mutable frontier : int;
  mutable frontier_peak : int;
  mutable frontier_sum : int;
  mutable match_steps : int;
  mutable het_joint_overrides : int;
  mutable het_single_overrides : int;
  mutable independence_preds : int;
}

let fresh_stats () =
  { ept_nodes = 0; frontier = 0; frontier_peak = 0; frontier_sum = 0;
    match_steps = 0; het_joint_overrides = 0; het_single_overrides = 0;
    independence_preds = 0 }

(* Selectivity of QTN q's value predicates at a node with this label. With
   no value synopsis the predicates are ignored (factor 1), preserving the
   purely structural behaviour of the paper. *)
let value_selectivity vs node_label vpreds =
  List.fold_left
    (fun acc vp -> acc *. Value_synopsis.selectivity vs ~context:node_label vp)
    1.0 vpreds

let[@inline] value_factor values c node_label q =
  match (values, c.vpreds.(q)) with
  | None, _ | _, [] -> 1.0
  | Some vs, vpreds -> value_selectivity vs node_label vpreds

(* Grow-only accumulator store, reused across estimates by its one owner.
   [embed] is node-major ([id * size + q]) because the top-down pass reads
   it back at every spine node. The other rows are indexed by DFS depth,
   since only the live root-to-leaf path needs them: [m] at the node's
   depth, [a] / [anc] one row lower, row 0 being the virtual parent of the
   root (all zeros). *)
type scratch = {
  mutable embed : float array;
      (* P(some child, for a child-axis QTN q, or some proper descendant,
         for a descendant-axis one, embeds q's subtree) *)
  mutable m : float array;  (* P(the node embeds q's full subtree) *)
  mutable a : float array;  (* P(the node is a valid image of q) *)
  mutable anc : float array;  (* noisy-or of [a] over the node's ancestry *)
  acc : float array;  (* the running estimate, unboxed *)
}

let scratch () = { embed = [||]; m = [||]; a = [||]; anc = [||]; acc = [| 0.0 |] }

let reserve sc ept c =
  let cells = ept.nodes * c.size and rows = (ept.depth + 1) * c.size in
  if Array.length sc.embed < cells then sc.embed <- Array.create_float cells;
  if Array.length sc.m < rows then begin
    sc.m <- Array.create_float rows;
    sc.a <- Array.create_float rows;
    sc.anc <- Array.create_float rows
  end;
  Array.fill sc.a 0 c.size 0.0;
  Array.fill sc.anc 0 c.size 0.0;
  sc.acc.(0) <- 0.0

(* Bottom-up: fill the node's [embed] slots and leave its m vector in row
   [depth] of [sc.m], where m.(q) = P(this node embeds the full pattern
   subtree of q | it exists). Each child's m (row [depth + 1]) is folded in
   as soon as its recursion returns, in child order, before the next
   sibling overwrites that row. Every slot a pass reads was written earlier
   in the same estimate, so the scratch needs no clearing between
   estimates. *)
let rec bottom_up values ms sc c node depth =
  let q_n = c.size in
  ms.ept_nodes <- ms.ept_nodes + 1;
  let embed = sc.embed and m = sc.m in
  let child_cols = c.child_cols and desc_cols = c.desc_cols in
  let base = node.id * q_n in
  for q = 0 to q_n - 1 do
    embed.(base + q) <- 0.0
  done;
  let n_kids = Array.length node.children in
  ms.frontier <- ms.frontier + n_kids;
  if ms.frontier > ms.frontier_peak then ms.frontier_peak <- ms.frontier;
  ms.frontier_sum <- ms.frontier_sum + ms.frontier;
  let kid_row = (depth + 1) * q_n in
  for i = 0 to n_kids - 1 do
    let kid = node.children.(i) in
    bottom_up values ms sc c kid (depth + 1);
    let kid_base = kid.id * q_n in
    for j = 0 to Array.length child_cols - 1 do
      let q = child_cols.(j) in
      embed.(base + q) <- noisy_or embed.(base + q) (kid.bsel *. m.(kid_row + q))
    done;
    for j = 0 to Array.length desc_cols - 1 do
      let q = desc_cols.(j) in
      let below = noisy_or m.(kid_row + q) embed.(kid_base + q) in
      embed.(base + q) <- noisy_or embed.(base + q) (kid.bsel *. below)
    done
  done;
  ms.frontier <- ms.frontier - n_kids;
  let row = depth * q_n in
  for q = 0 to q_n - 1 do
    if test_matches c q node.label then begin
      let sat = ref (value_factor values c node.label q) in
      let ks = c.kids.(q) in
      for j = 0 to Array.length ks - 1 do
        sat := !sat *. embed.(base + ks.(j))
      done;
      m.(row + q) <- !sat
    end
    else m.(row + q) <- 0.0
  done

(* The independence factor of predicate [k] at the node whose [embed]
   slots start at [base]. *)
let[@inline] plain ms sc base k =
  ms.independence_preds <- ms.independence_preds + 1;
  sc.embed.(base + k)

let[@inline] plain_product ms sc base ks =
  let f = ref 1.0 in
  for j = 0 to Array.length ks - 1 do
    f := !f *. plain ms sc base ks.(j)
  done;
  !f

(* Predicate factor at a spine node, with HET correlated-bsel overrides.
   A child-axis single-name predicate pattern p[q1]..[qk]/r is looked up
   jointly first, then each predicate singly; remaining predicates fall back
   to the independence factors from the bottom-up pass. *)
let[@inline] pred_factor het ms sc c node q =
  let base = node.id * c.size in
  match het with
  | None -> plain_product ms sc base c.preds.(q)
  | Some het ->
    let next = c.next.(q) in
    let eligible = c.eligible.(q) in
    let rest_factor = plain_product ms sc base c.rest.(q) in
    let joint =
      if Array.length eligible >= 2 && next >= -1 then
        Het.lookup_branching het ~parent:node.label
          ~predicates:c.joint_labels.(q) ~next
      else None
    in
    (match joint with
     | Some bsel ->
       ms.het_joint_overrides <- ms.het_joint_overrides + 1;
       bsel *. rest_factor
     | None ->
       let acc = ref rest_factor in
       for j = 0 to Array.length eligible - 1 do
         let factor =
           match
             Het.lookup_branching het ~parent:node.label
               ~predicates:c.single_labels.(q).(j) ~next
           with
           | Some bsel ->
             ms.het_single_overrides <- ms.het_single_overrides + 1;
             bsel
           | None -> plain ms sc base eligible.(j)
         in
         acc := !acc *. factor
       done;
       !acc)

(* Top-down: a.(q) = P(node is a valid image of result-path QTN q given its
   own existence), combining test, predicates (structural and value) and
   ancestor validity. The node at [depth] reads its parent's a / anc rows
   at [depth] and writes its own at [depth + 1]. *)
let rec top_down values het ms sc c ~prune node depth =
  let q_n = c.size in
  let prow = depth * q_n and row = (depth + 1) * q_n in
  let a = sc.a and anc = sc.anc and cols = c.result_cols in
  for j = 0 to Array.length cols - 1 do
    let q = cols.(j) in
    a.(row + q) <- 0.0;
    if test_matches c q node.label then begin
      let anc_factor =
        let p = c.parent.(q) in
        if p < 0 then
          if c.is_descendant.(q) then 1.0 else if depth = 0 then 1.0 else 0.0
        else if c.is_descendant.(q) then anc.(prow + p)
        else a.(prow + p)
      in
      if anc_factor > 0.0 then
        (* A step without predicates has factor 1 and consults no HET. *)
        let pf =
          if c.preds.(q) = [||] then 1.0 else pred_factor het ms sc c node q
        in
        a.(row + q) <- anc_factor *. pf *. value_factor values c node.label q
    end
  done;
  sc.acc.(0) <- sc.acc.(0) +. (node.card *. a.(row + c.result_id));
  let live = ref false in
  for j = 0 to Array.length cols - 1 do
    if a.(row + cols.(j)) <> 0.0 then live := true
  done;
  let anc_cols = c.anc_cols in
  for j = 0 to Array.length anc_cols - 1 do
    let q = anc_cols.(j) in
    anc.(row + q) <- noisy_or anc.(prow + q) a.(row + q);
    if anc.(row + q) <> 0.0 then live := true
  done;
  (* Below an anchored query's last valid image every a is 0, so with
     finite cards the subtree adds exactly 0 and consults nothing. *)
  if !live || not prune then
    for i = 0 to Array.length node.children - 1 do
      top_down values het ms sc c ~prune node.children.(i) (depth + 1)
    done

let estimate_with_stats ?scratch:(sc = scratch ()) ?het ?values ~table ept qt =
  let c = compile table qt in
  let ms = fresh_stats () in
  reserve sc ept c;
  bottom_up values ms sc c ept.root 0;
  top_down values het ms sc c ~prune:(c.anchored && ept.finite) ept.root 0;
  (* Each pass covers every (EPT node, QTN) pair, skipped or not. *)
  ms.match_steps <- 2 * c.size * ms.ept_nodes;
  (sc.acc.(0), ms)

let publish_stats ?obs ms =
  match obs with
  | None -> ()
  | Some _ ->
    Obs.add_to ?obs "matcher.match_steps" ms.match_steps;
    Obs.max_to ?obs "matcher.frontier_peak" ms.frontier_peak;
    (* Per-query mean of the running frontier — the peak is already a
       separate counter, so the histogram carries the distribution. *)
    if ms.ept_nodes > 0 then
      Obs.observe ?obs "matcher.frontier_mean"
        (float_of_int ms.frontier_sum /. float_of_int ms.ept_nodes);
    Obs.add_to ?obs "matcher.het_joint_overrides" ms.het_joint_overrides;
    Obs.add_to ?obs "matcher.het_single_overrides" ms.het_single_overrides;
    Obs.add_to ?obs "matcher.independence_preds" ms.independence_preds

let estimate ?scratch ?het ?values ?obs ~table ept qt =
  let result, ms = estimate_with_stats ?scratch ?het ?values ~table ept qt in
  publish_stats ?obs ms;
  result
