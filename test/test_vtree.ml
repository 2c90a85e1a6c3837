open Test_util

let vars4 = [ "a"; "b"; "c"; "d" ]

(* Right-linearity by walking the spine, against the flag [of_shape]
   records. *)
let rec reference_right_linear t v =
  Vtree.is_leaf t v
  || Vtree.is_leaf t (Vtree.left t v)
     && reference_right_linear t (Vtree.right t v)

let vtree_suite =
  [
    case "right linear structure" (fun () ->
        let t = Vtree.right_linear vars4 in
        checki "leaves" 4 (Vtree.num_leaves t);
        checki "nodes" 7 (Vtree.num_nodes t);
        checkb "right-linear" true (Vtree.is_right_linear t);
        Alcotest.(check (list string)) "order" vars4 (Vtree.leaf_order t));
    case "balanced structure" (fun () ->
        let t = Vtree.balanced vars4 in
        checkb "not right-linear" false (Vtree.is_right_linear t);
        Alcotest.(check (list string)) "vars" vars4 (Vtree.variables t));
    case "left linear" (fun () ->
        let t = Vtree.left_linear vars4 in
        checki "nodes" 7 (Vtree.num_nodes t);
        Alcotest.(check (list string)) "order" vars4 (Vtree.leaf_order t));
    case "vars_below" (fun () ->
        let t = Vtree.balanced vars4 in
        let r = Vtree.root t in
        Alcotest.(check (list string)) "root" vars4 (Vtree.vars_below t r);
        Alcotest.(check (list string)) "left" [ "a"; "b" ]
          (Vtree.vars_below t (Vtree.left t r));
        checki "count right" 2 (Vtree.num_vars_below t (Vtree.right t r)));
    case "ancestry and lca" (fun () ->
        let t = Vtree.balanced vars4 in
        let r = Vtree.root t in
        let la = Vtree.leaf_of_var t "a" and lc = Vtree.leaf_of_var t "c" in
        checkb "root ancestor of all" true (Vtree.is_ancestor t r la);
        checkb "reflexive" true (Vtree.is_ancestor t la la);
        checkb "leaf not ancestor" false (Vtree.is_ancestor t la lc);
        checki "lca(a,c) = root" r (Vtree.lca t la lc);
        checkb "a in left of root" true (Vtree.in_left_subtree t r la);
        checkb "c in right of root" true (Vtree.in_right_subtree t r lc));
    case "parent and depth" (fun () ->
        let t = Vtree.right_linear [ "x"; "y" ] in
        let r = Vtree.root t in
        checki "depth root" 0 (Vtree.depth t r);
        checki "depth leaf" 1 (Vtree.depth t (Vtree.leaf_of_var t "x"));
        Alcotest.(check (option int)) "parent of root" None (Vtree.parent t r);
        Alcotest.(check (option int)) "parent of leaf" (Some r)
          (Vtree.parent t (Vtree.leaf_of_var t "x")));
    case "duplicate variables rejected" (fun () ->
        Alcotest.check_raises "raise" (Invalid_argument "Vtree.right_linear: duplicate variables")
          (fun () -> ignore (Vtree.right_linear [ "a"; "a" ])));
    case "shape roundtrip" (fun () ->
        let t = Vtree.balanced vars4 in
        checkb "roundtrip" true (Vtree.equal t (Vtree.of_shape (Vtree.to_shape t))));
    case "enumerate counts" (fun () ->
        checki "1 var" 1 (List.length (Vtree.enumerate [ "a" ]));
        checki "2 vars" 2 (List.length (Vtree.enumerate [ "a"; "b" ]));
        checki "3 vars" 12 (List.length (Vtree.enumerate [ "a"; "b"; "c" ]));
        (* ordered binary trees over n labeled leaves: (2n-2)!/(n-1)! ... for
           n=4: 120 *)
        checki "4 vars" 120 (List.length (Vtree.enumerate vars4)));
    case "in-order node list" (fun () ->
        let t = Vtree.right_linear [ "a"; "b"; "c" ] in
        checki "5 nodes" 5 (List.length (Vtree.nodes t));
        (* every node appears exactly once *)
        checki "unique" 5 (List.length (List.sort_uniq compare (Vtree.nodes t))));
    qtest "random vtrees well-formed" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let t = Vtree.random ~seed (small_vars 6) in
        Vtree.num_nodes t = 11
        && Vtree.variables t = small_vars 6
        && List.length (Vtree.nodes t) = 11);
    qtest ~count:40 "leaf intervals consistent with vars_below"
      QCheck2.Gen.(triple (int_range 0 2) (int_range 1 2000) (int_range 0 1000))
      (fun (kind, n, seed) ->
        (* [Y_v] is the sorted in-order leaf slice of [v]'s subtree, on
           spines of either side and on random shapes; about a hundred
           nodes per tree, spread over its ids, keep 2,000 leaves quick. *)
        let vars = List.init n (Printf.sprintf "v%d") in
        let t =
          match kind with
          | 0 -> Vtree.right_linear vars
          | 1 -> Vtree.left_linear vars
          | _ -> Vtree.random ~seed vars
        in
        let order = Array.of_list (Vtree.leaf_order t) in
        let rec walk v acc =
          if Vtree.is_leaf t v then Vtree.var_of_leaf t v :: acc
          else walk (Vtree.left t v) (walk (Vtree.right t v) acc)
        in
        let slice_at v =
          let below = walk v [] in
          let k = List.length below in
          let rec start i =
            if order.(i) = List.hd below then i else start (i + 1)
          in
          let i = start 0 in
          (below, i + k <= Array.length order
                  && Array.to_list (Array.sub order i k) = below)
        in
        let stride = max 1 (Vtree.num_nodes t / 100) in
        Vtree.variables t = List.sort compare vars
        && List.sort compare (Array.to_list order) = List.sort compare vars
        && List.for_all
             (fun v ->
               v mod stride <> 0
               ||
               let below, contiguous = slice_at v in
               contiguous
               && Vtree.vars_below t v = List.sort compare below
               && Vtree.num_vars_below t v = List.length below)
             (Vtree.nodes t));
    qtest "stored right-linearity matches the spine walk"
      QCheck2.Gen.(pair (int_range 1 6) (int_range 0 200))
      (fun (n, seed) ->
        (* Random vtrees, the right-linear one, and every local move
           from either: rotations build and break right-linear spines. *)
        let vars = small_vars n in
        let t = Vtree.random ~seed vars and rl = Vtree.right_linear vars in
        Vtree.is_right_linear rl
        && List.for_all
             (fun u ->
               Vtree.is_right_linear u
               = reference_right_linear u (Vtree.root u))
             ((t :: Vtree.local_moves t) @ (rl :: Vtree.local_moves rl)));
  ]

let suites = [ ("vtree", vtree_suite) ]
