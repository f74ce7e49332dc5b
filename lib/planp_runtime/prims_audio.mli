(** Audio primitives over {!Audio_frame} blobs: [audioSeq], [audioQuality],
    [audioFrames], [audioDegrade], [audioRestore], [audioBytes].

    They work on the frame's wire bytes ({!Audio_frame.Wire}): the header
    readers peek at 7 bytes, and [audioDegrade]/[audioRestore] run one pass
    over the samples, returning their argument's payload when nothing
    changes. Blobs that do not decode as audio frames raise the PLAN-P
    exception [BadAudio]. Installed by {!Prims.install}. *)

val install : unit -> unit
