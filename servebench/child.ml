(* The xseed child processes: synopsis builds and the TCP server. *)

let env_without_ocamlrunparam () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not (String.length kv >= 15 && String.sub kv 0 15 = "OCAMLRUNPARAM="))
  |> Array.of_list

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Run [prog args] to completion with stdout discarded and stderr to [log]. *)
let run_to_completion ~log prog args =
  let null = devnull () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args))
      (env_without_ocamlrunparam ()) null null err
  in
  Unix.close null;
  Unix.close err;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed (see %s)" prog (String.concat " " args) log)

type server = { pid : int; port : int; log : string; mutable alive : bool }

(* Read to end of file: /proc files report no length. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match input ic chunk 0 4096 with
    | 0 -> Buffer.contents b
    | k -> Buffer.add_subbytes b chunk 0 k; go ()
  in
  go ()

(* The server prints "xseed serve: listening on <host>:<port>" once bound. *)
let find_port log_text =
  (* only complete lines: the last fragment may still be being written *)
  let complete =
    match List.rev (String.split_on_char '\n' log_text) with
    | _partial :: rest -> List.rev rest
    | [] -> []
  in
  complete
  |> List.find_map (fun line ->
         match Scanf.sscanf line "xseed serve: listening on %s@\n" Fun.id with
         | addr ->
           (match String.rindex_opt addr ':' with
            | Some c ->
              int_of_string_opt
                (String.sub addr (c + 1) (String.length addr - c - 1))
            | None -> None)
         | exception _ -> None)

let stop s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

(* Start [xseed serve --port 0 ...] and wait until it prints its port. *)
let start_server ~xseed ~log args =
  let null = devnull () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv = Array.of_list ((xseed :: "serve" :: args) @ [ "--port"; "0" ]) in
  let pid = Unix.create_process_env xseed argv (env_without_ocamlrunparam ()) null null err in
  Unix.close null;
  Unix.close err;
  let deadline = Obs.now_mono () +. 30.0 in
  let rec wait () =
    match find_port (read_file log) with
    | Some port -> { pid; port; log; alive = true }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith ("xseed serve exited during start-up; see " ^ log));
      if Obs.now_mono () > deadline then begin
        stop { pid; port = 0; log; alive = true };
        failwith ("xseed serve did not report a port; see " ^ log)
      end;
      Unix.sleepf 0.0005;
      wait ()
  in
  wait ()

(* /proc readings of the live server. *)

let proc_field pid field =
  let text = read_file (Printf.sprintf "/proc/%d/status" pid) in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = field ->
           Scanf.sscanf (String.sub line (i + 1) (String.length line - i - 1))
             " %d" Option.some
         | _ -> None)

let peak_rss_mb pid =
  match proc_field pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

(* utime + stime in seconds; Linux reports clock ticks of 1/100 s. *)
let cpu_s pid =
  let text = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex text ')' in
  let fields =
    String.split_on_char ' ' (String.sub text (after + 2) (String.length text - after - 2))
  in
  let f i = float_of_string (List.nth fields i) in
  (* fields after the command name start at field 3 (state), so utime (14)
     and stime (15) sit at offsets 11 and 12 *)
  (f 11 +. f 12) /. 100.0
