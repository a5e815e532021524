(* Root module of the [engine] library: re-export the serving submodules
   and the single-domain engine itself ([Engine_core]). [Engine_core] and
   [Pool] both drive [Shard] directly so this module stays a pure facade. *)

module Canonical = Canonical
module Lru_cache = Lru_cache
module Feedback = Feedback
module Flight_recorder = Flight_recorder
module Drift = Drift
module Serve = Serve
module Pool = Pool
module Journal = Journal
module Registry = Registry
module Auditor = Auditor
module Scrape_meter = Scrape_meter
include Engine_core
