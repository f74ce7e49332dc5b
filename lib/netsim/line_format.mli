(** The line format of operator files: fault scenarios
    ({!Faults.parse_scenario}) and adaptation policies
    ([Adapt.Policy.parse]). Each parser keeps its line forms as patterns
    over token lists. [#] starts a comment; spaces, tabs and carriage
    returns separate tokens; a line with no token is skipped. *)

(** What a number field may hold. Every kind refuses text that is not a
    number, NaN and ±infinity (an overflowing literal such as [1e400]
    reads as infinity) before its range check. *)
type _ kind =
  | Finite : float kind  (** any finite number *)
  | Duration : float kind  (** [>= 0] *)
  | Positive : float kind  (** [> 0] *)
  | Probability : float kind  (** in \[0, 1\] *)
  | Factor : float kind  (** in (0, 1\] *)
  | Int : int kind  (** an integer literal that fits an [int] *)

exception Error of string  (** a malformed line, without its number *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Error} with the formatted message. *)

val field : 'a kind -> string -> string -> 'a
(** [field kind name text] reads [text] as a [kind] value or raises
    {!Error} with ["<name>: not a number (<text>)"], ["<name>: not a
    finite number (<text>)"], ["<name>: not an integer (<text>)"] or
    ["<name>: <range> (<text>)"], where [<range>] is ["duration out of
    [0,inf)"], ["value out of (0,inf)"], ["probability out of [0,1]"] or
    ["factor out of (0,1]"]. *)

val parse : ('a -> string list -> 'a) -> 'a -> string -> ('a, string) result
(** [parse step init text] folds [step] over the tokens of every line of
    [text] that has any. An {!Error} raised on line N (counted from 1)
    ends the fold with [Error "line N: <message>"]. *)
