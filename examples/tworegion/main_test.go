package main

// Example runs the program, so `go test` checks its output byte for byte.
func Example() {
	main()
	// Output:
	// running the two-region scenario under Policy 1 (sensible routing) ...
	// === figure3 — Policy 1 (sensible routing) ===
	// RMTTF per region (s)
	//   2.57e+03 |*
	//            |
	//            | *
	//            |
	//            |  *
	//            |   *
	//            |    *                  **
	//            |+    **            ****  ***            ******** ***         ** ***
	//            | +     ***      ***         ****    ****        *   ***** ***  *   *****
	//            |  +       ******       +        ****                     *
	//            |   +                 ++ + ++++              ++++++++
	//        268 |    +++++++++++++++++    +    ++++++++++++++        ++++++++++++++++++++
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region3   (y: seconds)
	// workload fraction f_i per region
	//      0.797 |
	//            |    ****** ***  *****    *      ************              **************
	//            |****      *   **        *     **                    ******
	//            |                     ***  * **              ****  **
	//            |                           *                    **
	//            |
	//            |
	//            |
	//            |                           +                    ++
	//            |                     +++  + ++              ++++  ++
	//            |++++      +   ++        +     ++                    ++++++
	//      0.203 |    ++++++ +++  +++++    +      ++++++++++++              ++++++++++++++
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region3   (y: fraction)
	// client response time (s)
	//      0.441 |                              *
	//            |                               *
	//            |
	//            |                                                    *
	//            |         *  *               *   *                     *
	//            |        * **   *        *        *                   *  *
	//            |   *   *     *   *                ***          *                       *
	//            |              * *        *   *         *               * ***      * * *
	//            |    ***            *      **         **  ***  *   **        * * ** * *
	//      0.098 |***               * ****                *   **  **           * *
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=all_clients   (y: seconds)
	// summary: converged=false spread=0.889 fractionOsc=0.0465 meanRT=0.191s slaViol=0.0200 successRatio=0.9736
	//
	// running the two-region scenario under Policy 2 (available resources) ...
	// === figure3 — Policy 2 (available resources) ===
	// RMTTF per region (s)
	//   2.57e+03 |*
	//            |
	//            |
	//            | *
	//            |
	//            |  * +                                                 ++
	//            |   * +
	//            |   +
	//            |+   * +          ***+++++++         **++*     ++     +  +** +++
	//            | ++  **+**   * *++++   *** +*    **+++  ++++++  +*******   ****+****++**
	//            |        ++++++++          **+++++++           ** ++      +++    ++++  ++
	//        508 |                                                   ++
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region3   (y: seconds)
	// workload fraction f_i per region
	//      0.913 |                                                    *
	//            |  **             ********           **********       *            ******
	//            | *  *    ** *****        *      ****          *    *  *   ********
	//            |*    ****  *              ******               * **    * *
	//            |                                                *       *
	//            |
	//            |
	//            |
	//            |                                                +       +
	//            |+    ++++  +              ++++++               + ++    + +
	//            | +  +    ++ +++++        +      ++++          +    +  +   ++++++++
	//     0.0865 |  ++             ++++++++           ++++++++++      ++            ++++++
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region3   (y: fraction)
	// client response time (s)
	//      0.707 |          *
	//            |
	//            |
	//            |
	//            |           *
	//            |                          *                   *
	//            |         *              **   **            *                          *
	//            |                                         ** ** *                   ***
	//            |     * **   ****      **   **  *        *       ** ***   *      * *
	//      0.098 |***** *         ******          ********          *   *** ****** *     *
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=all_clients   (y: seconds)
	// summary: converged=true spread=0.023 fractionOsc=0.0955 meanRT=0.198s slaViol=0.0193 successRatio=0.9944
	//
	// running the two-region scenario under Policy 3 (exploration) ...
	// === figure3 — Policy 3 (exploration) ===
	// RMTTF per region (s)
	//   2.57e+03 |*
	//            |
	//            |
	//            | *  +
	//            |  *  +                                                     +
	//            |
	//            |   *  +                                                     ****       +
	//            |       **          +****                                    +   +++
	//            |+   ***+ * ++     +*    +++    +      ++++++++*          *+*    ***+***
	//            | +        ***++**** ++++  *++++*++*+++        ++++++++***    + +   *   *
	//            |  ++    +++    + +                +                  *+       +     +
	//        387 |                +                                      +++           ++
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region3   (y: seconds)
	// workload fraction f_i per region
	//      0.936 |                                                         *
	//            |  **                   ***                              * *           *
	//            | *       ***    ***  **   *****     ****************          ****   *
	//            |    *   *   ****   **          *****                *  *          ***
	//            |*                                                    **    * *         *
	//            |     * *                                                    *
	//            |      +
	//            |     + +                                                    +
	//            |+                                                    ++    + +         +
	//            |    +   +   ++++   ++          +++++                +  +          +++
	//            | +       +++    +++  ++   +++++     ++++++++++++++++          ++++   +
	//     0.0637 |  ++                   +++                              +++           +
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=region1 +=region3   (y: fraction)
	// client response time (s)
	//      0.631 |          *
	//            |
	//            |
	//            |
	//            |                                                    *
	//            |
	//            |        *                 ** *    **           *   * *                *
	//            |         *       *       *    *  *               **   **             * *
	//            |    *      **  **       *   *   *   **   **  ** *       * *  *  *****
	//        0.1 |**** ***     **   ******       *      ***  **            * ** **
	//            +------------------------------------------------------------------------
	//             60                                                                      5400 (time, s)
	//   legend: *=all_clients   (y: seconds)
	// summary: converged=true spread=0.057 fractionOsc=0.1347 meanRT=0.196s slaViol=0.0190 successRatio=0.9792
	//
	// === policy comparison (Figure 3) ===
	// policy     converged    spread    convTime fOscillation  meanRT(s)    slaViol    rejuv  crashes
	// policy1           no     0.889       never       0.0465      0.191     0.0200      196       15
	// policy2          yes     0.023       4440s       0.0955      0.198     0.0193       52        5
	// policy3          yes     0.057         n/a       0.1347      0.196     0.0190       77        7
	// qualitative claims of Section VI-B:
	//   [ok  ] Policy 1 does not converge (heterogeneous regions)
	//   [ok  ] Policy 2 converges
	//   [ok  ] Policy 3 converges
	//   [ok  ] Policy 2 shows the tightest RMTTF convergence
	//   [ok  ] Policy 2 converges at least as fast as Policy 3
	//   [ok  ] mean response time below the 1 s SLA for all policies
}
